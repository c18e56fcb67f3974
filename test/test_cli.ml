(* Smoke tests for the command-line executables. Test binaries run
   with the build directory for this folder as their cwd, so the
   executables are reachable at ../bin and ../bench. *)

let run_capture command =
  let output_file = Filename.temp_file "nvcli" ".out" in
  let status = Sys.command (Printf.sprintf "%s > %s 2>&1" command output_file) in
  let ic = open_in_bin output_file in
  let n = in_channel_length ic in
  let output = really_input_string ic n in
  close_in ic;
  Sys.remove output_file;
  (status, output)

let write_temp_program source =
  let path = Filename.temp_file "nvcli" ".mc" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  path

let contains haystack needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || scan (i + 1))
  in
  scan 0

let hello_program =
  {|int main(void) {
      write_str(1, "hello from the guest\n");
      return 0;
    }|}

let uid_program =
  {|uid_t worker = 33;
    int main(void) {
      if (seteuid(worker) != 0) { return 1; }
      return 0;
    }|}

let test_minicc_run () =
  let path = write_temp_program hello_program in
  let status, output = run_capture (Printf.sprintf "../bin/minicc.exe %s" path) in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "guest stdout" true (contains output "hello from the guest")

let test_minicc_ast () =
  let path = write_temp_program uid_program in
  let status, output =
    run_capture (Printf.sprintf "../bin/minicc.exe -a ast --no-runtime %s" path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "uid_t kept" true (contains output "uid_t worker = 33;")

let test_minicc_variant_source () =
  let path = write_temp_program uid_program in
  let status, output =
    run_capture (Printf.sprintf "../bin/minicc.exe -a variant-source --no-runtime %s" path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "constant reexpressed" true
    (contains output (string_of_int (33 lxor 0x7FFFFFFF)))

let test_minicc_rejects_bad_program () =
  let path = write_temp_program "int main(void) { return missing; }" in
  let status, _ = run_capture (Printf.sprintf "../bin/minicc.exe --no-runtime %s" path) in
  Sys.remove path;
  Alcotest.(check bool) "nonzero exit" true (status <> 0)

let test_nvexec_uid_diversity () =
  let path = write_temp_program uid_program in
  let status, output =
    run_capture (Printf.sprintf "../bin/nvexec.exe -v uid-diversity %s" path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "reports variation" true (contains output "uid-diversity")

let test_nvexec_trace () =
  let path = write_temp_program uid_program in
  let status, output =
    run_capture (Printf.sprintf "../bin/nvexec.exe -v uid-diversity --trace %s" path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "seteuid traced" true (contains output "[seteuid]")

(* The Table 2 attack as a standalone guest: the strcpy NUL terminator
   and 'A' bytes overrun buf into the adjacent worker UID word, so
   both variants hold the same raw (un-reexpressed) value and the
   first detection call on it diverges. *)
let overflow_program =
  {|char buf[8];
    uid_t worker = 33;
    int main(void) {
      strcpy(buf, "AAAAAAAAAAAA");
      if (worker == 0) { return 2; }
      if (seteuid(worker) != 0) { return 1; }
      return 0;
    }|}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_nvexec_trace_out () =
  let path = write_temp_program overflow_program in
  let trace_path = Filename.temp_file "nvcli" ".json" in
  let status, output =
    run_capture
      (Printf.sprintf "../bin/nvexec.exe -v uid-diversity --trace-out %s %s" trace_path
         path)
  in
  Sys.remove path;
  let trace = read_file trace_path in
  Sys.remove trace_path;
  Alcotest.(check int) "alarm exit code" 3 status;
  Alcotest.(check bool) "alarm reported" true (contains output "ALARM: cc_eq");
  (* Valid JSON (parse with the same parser the library emits for),
     Chrome trace-event shaped, divergence visible in the final
     events, forensics attached. *)
  (match Nv_util.Metrics.Json.of_string trace with
  | Error e -> Alcotest.failf "trace-out is not valid JSON: %s" e
  | Ok json ->
    Alcotest.(check bool) "has traceEvents" true
      (Nv_util.Metrics.Json.member "traceEvents" json <> None);
    Alcotest.(check bool) "has forensics" true
      (Nv_util.Metrics.Json.member "forensics" json <> None));
  Alcotest.(check bool) "divergence rendezvous in events" true
    (contains trace "rendezvous:cc_eq");
  Alcotest.(check bool) "alarm instant in events" true (contains trace "alarm:arg");
  Alcotest.(check bool) "mismatched canonical value kept" true
    (contains trace "0x41414141")

let test_attack_lab_list () =
  let status, output = run_capture "../bin/attack_lab.exe --list" in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "lists overflow attack" true (contains output "uid-null-overflow");
  Alcotest.(check bool) "lists injection" true (contains output "stack-code-injection")

let test_attack_lab_single_cell () =
  let status, output =
    run_capture "../bin/attack_lab.exe --attack uid-null-overflow --config config4"
  in
  Alcotest.(check int) "exit 0 (not escalated)" 0 status;
  Alcotest.(check bool) "detected" true (contains output "DETECTED")

let test_attack_lab_forensics () =
  let out_path = Filename.temp_file "nvcli" ".json" in
  let status, output =
    run_capture
      (Printf.sprintf
         "../bin/attack_lab.exe --attack uid-null-overflow --config config4 \
          --forensics %s"
         out_path)
  in
  let dump = read_file out_path in
  Sys.remove out_path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "cell verdict printed" true (contains output "DETECTED");
  Alcotest.(check bool) "forensics bundle written" true (contains dump "\"forensics\"");
  Alcotest.(check bool) "alarm class in bundle" true (contains dump "\"class\":\"arg\"")

let test_bench_table1 () =
  let status, output = run_capture "../bench/main.exe table1" in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "prints the table" true (contains output "UID Variation (this paper)");
  Alcotest.(check bool) "checks properties" true (contains output "disjointness 100000/100000")

(* The Table 2 and Figure 2 demos print the notes the monitor's flight
   recorder keeps for every checked call. *)
let test_bench_table2 () =
  let status, output = run_capture "../bench/main.exe table2" in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "demo exits 0" true
    (contains output "live demo under the 2-variant UID variation (exit 0)");
  Alcotest.(check bool) "cond_chk note" true
    (contains output "  cond_chk   cond_chk(1): paths agree\n");
  Alcotest.(check bool) "cc_eq note" true
    (contains output
       "  cc_eq      cc_eq(0x00000000, 0x00000000) = true on canonical values\n")

let test_bench_figure2 () =
  let status, output = run_capture "../bench/main.exe figure2" in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "unshared open note" true
    (contains output
       "  [open] open(\"/etc/passwd\"): unshared, variant i gets /etc/passwd-i\n");
  Alcotest.(check bool) "seteuid note" true
    (contains output
       ("  [seteuid] seteuid: R_i^-1 applied, canonical 0x00000021 agreed, "
       ^ "performed once\n"));
  Alcotest.(check bool) "counters" true (contains output "monitor counters: 28 rendezvous;")

let test_bench_unknown_report () =
  let status, _ = run_capture "../bench/main.exe nonsense" in
  Alcotest.(check bool) "nonzero" true (status <> 0)

let test_nvexec_metrics_dump () =
  let path = write_temp_program uid_program in
  let status, output =
    run_capture (Printf.sprintf "../bin/nvexec.exe -v uid-diversity --metrics text %s" path)
  in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "rendezvous counter" true (contains output "monitor.rendezvous");
  Alcotest.(check bool) "check counter" true (contains output "monitor.checks.performed");
  Alcotest.(check bool) "relaxed-check counter" true
    (contains output "monitor.relaxed_checks");
  Alcotest.(check bool) "deferred-batch histogram" true
    (contains output "monitor.deferred_batch_size");
  Alcotest.(check bool) "kernel counter" true (contains output "kernel.syscalls")

let test_bench_results_json () =
  let json_path = Filename.temp_file "nvcli" ".json" in
  let status, _ = run_capture (Printf.sprintf "../bench/main.exe bench %s" json_path) in
  Alcotest.(check int) "exit 0" 0 status;
  let ic = open_in_bin json_path in
  let n = in_channel_length ic in
  let json = really_input_string ic n in
  close_in ic;
  Sys.remove json_path;
  Alcotest.(check bool) "per-config throughput" true (contains json "throughput_kb_s");
  Alcotest.(check bool) "monitor check counters" true (contains json "checks_performed");
  Alcotest.(check bool) "all configs present" true (contains json "config4");
  Alcotest.(check bool) "fleet row present" true (contains json "\"fleet\"");
  Alcotest.(check bool) "fleet tail latency" true (contains json "latency_p999_ms");
  Alcotest.(check bool) "fleet error budget" true (contains json "error_budget_used")

(* hostperf's timings vary run to run, so this checks that every key the
   CI gates read, and every checkpoint figure, is a number and pins only
   the deterministic counts. *)
let test_bench_hostperf () =
  let module Json = Nv_util.Metrics.Json in
  let json_path = Filename.temp_file "nvcli" ".json" in
  let status, _ = run_capture (Printf.sprintf "../bench/main.exe hostperf %s" json_path) in
  let json = read_file json_path in
  Sys.remove json_path;
  Alcotest.(check int) "exit 0" 0 status;
  let hostperf =
    match Json.of_string json with
    | Error e -> Alcotest.failf "hostperf output is not valid JSON: %s" e
    | Ok json -> (
      match Json.member "hostperf" json with
      | Some row -> row
      | None -> Alcotest.fail "no hostperf key")
  in
  let number row key =
    match Option.bind (Json.member row hostperf) (Json.member key) with
    | Some (Json.Num x) -> x
    | _ -> Alcotest.failf "hostperf.%s.%s is not a number" row key
  in
  List.iter
    (fun (row, keys) -> List.iter (fun key -> ignore (number row key)) keys)
    [
      ("parallel_2variant", [ "speedup"; "host_cores"; "relaxed_checks" ]);
      ( "block",
        [
          "mips"; "speedup_vs_icache"; "speedup_vs_reference"; "compiled_blocks";
          "block_hits"; "invalidations";
        ] );
      ( "trace_overhead",
        [
          "baseline_mips"; "disabled_mips"; "enabled_over_disabled";
          "disabled_vs_monitor_frac";
        ] );
      ( "checkpoint",
        [ "snapshot_us"; "restore_us"; "dirty_pages_per_request"; "pages_per_segment" ] );
    ];
  List.iter
    (fun (row, key, expected) ->
      Alcotest.(check (float 0.)) (row ^ "." ^ key) expected (number row key))
    [
      ("interpreter", "instructions", 900004.);
      ("block", "instructions", 900004.);
      ("block", "compiled_blocks", 3.);
      ("block", "block_hits", 149998.);
      ("block", "invalidations", 0.);
      ("parallel_2variant", "relaxed_checks", 40.);
      ("parallel_4variant", "relaxed_checks", 40.);
      ("checkpoint", "pages_per_segment", 256.);
      ("checkpoint", "dirty_pages_per_request", 8.);
    ]

let test_bench_micro () =
  let status, output = run_capture "../bench/main.exe micro" in
  Alcotest.(check int) "exit 0" 0 status;
  List.iter
    (fun kernel ->
      Alcotest.(check bool) kernel true (contains output ("| " ^ kernel ^ " ")))
    [
      "table1/reexpression-properties";
      "table2/detection-syscall-roundtrip";
      "table3/webbench-simulation";
      "figure1/address-partition-detection";
      "figure2/monitored-request";
      "x1/httpd-transformation";
      "x2/uid-overflow-detection";
      "x3/user-space-mode-roundtrip";
    ]

let test_fleetsim_smoke () =
  let status, output =
    run_capture
      "../bin/fleetsim.exe --replicas 2 --rate 150 --duration 2 --users 5000 \
       --attacks-per-10k 5 --seed 7"
  in
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "fleet header" true (contains output "fleet: 2 replicas");
  Alcotest.(check bool) "population line" true (contains output "5005 passwd entries");
  Alcotest.(check bool) "latency line" true (contains output "latency: p50");
  Alcotest.(check bool) "slo line" true (contains output "availability")

let test_fleetsim_trace_and_log_level () =
  let trace_path = Filename.temp_file "nvcli" ".json" in
  let status, output =
    run_capture
      (Printf.sprintf
         "../bin/fleetsim.exe --replicas 2 --rate 150 --duration 2 --users 5000 \
          --attacks-per-10k 50 --seed 7 --log-level info --trace-out %s"
         trace_path)
  in
  let trace = read_file trace_path in
  Sys.remove trace_path;
  Alcotest.(check int) "exit 0" 0 status;
  Alcotest.(check bool) "fleet header" true (contains output "fleet: 2 replicas");
  (match Nv_util.Metrics.Json.of_string trace with
  | Error e -> Alcotest.failf "fleet trace-out is not valid JSON: %s" e
  | Ok json ->
    Alcotest.(check bool) "has traceEvents" true
      (Nv_util.Metrics.Json.member "traceEvents" json <> None));
  Alcotest.(check bool) "replica health transitions traced" true
    (contains trace "health:");
  Alcotest.(check bool) "replica lanes named" true (contains trace "replica 0")

let test_fleetsim_deterministic_across_parallel () =
  let invoke parallel =
    run_capture
      (Printf.sprintf
         "../bin/fleetsim.exe --replicas 2 --rate 150 --duration 2 --users 5000 \
          --seed 7 --parallel %s"
         parallel)
  in
  let status_seq, seq = invoke "off" in
  let status_par, par = invoke "on" in
  Alcotest.(check int) "seq exit 0" 0 status_seq;
  Alcotest.(check int) "par exit 0" 0 status_par;
  Alcotest.(check string) "identical fleet reports" seq par

let () =
  Alcotest.run "nv_cli"
    [
      ( "minicc",
        [
          Alcotest.test_case "run" `Quick test_minicc_run;
          Alcotest.test_case "ast" `Quick test_minicc_ast;
          Alcotest.test_case "variant source" `Quick test_minicc_variant_source;
          Alcotest.test_case "rejects bad program" `Quick test_minicc_rejects_bad_program;
        ] );
      ( "nvexec",
        [
          Alcotest.test_case "uid diversity" `Quick test_nvexec_uid_diversity;
          Alcotest.test_case "trace" `Quick test_nvexec_trace;
          Alcotest.test_case "trace-out" `Quick test_nvexec_trace_out;
          Alcotest.test_case "metrics dump" `Quick test_nvexec_metrics_dump;
        ] );
      ( "attack_lab",
        [
          Alcotest.test_case "list" `Quick test_attack_lab_list;
          Alcotest.test_case "single cell" `Quick test_attack_lab_single_cell;
          Alcotest.test_case "forensics dump" `Quick test_attack_lab_forensics;
        ] );
      ( "bench",
        [
          Alcotest.test_case "table1" `Quick test_bench_table1;
          Alcotest.test_case "table2" `Quick test_bench_table2;
          Alcotest.test_case "figure2" `Quick test_bench_figure2;
          Alcotest.test_case "unknown report" `Quick test_bench_unknown_report;
          Alcotest.test_case "bench results json" `Quick test_bench_results_json;
          Alcotest.test_case "hostperf" `Quick test_bench_hostperf;
          Alcotest.test_case "micro" `Quick test_bench_micro;
        ] );
      ( "fleetsim",
        [
          Alcotest.test_case "smoke" `Quick test_fleetsim_smoke;
          Alcotest.test_case "trace-out and log-level" `Quick
            test_fleetsim_trace_and_log_level;
          Alcotest.test_case "seq/par identical" `Quick
            test_fleetsim_deterministic_across_parallel;
        ] );
    ]
