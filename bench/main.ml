(* The benchmark / experiment harness.

   Every table and figure of the paper's evaluation has (a) a report
   generator that regenerates the artifact from this reproduction, and
   (b) a micro-benchmark timing its harness kernel on the host.

     dune exec bench/main.exe              all reports (Tables 1-3,
                                           Figures 1-2, X1-X3)
     dune exec bench/main.exe -- table3    one report
     dune exec bench/main.exe -- micro     host time of each kernel *)

module Word = Nv_vm.Word
module Variation = Nv_core.Variation
module Reexpression = Nv_core.Reexpression
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Deploy = Nv_httpd.Deploy
module Ut = Nv_transform.Uid_transform

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

module Json = Nv_util.Metrics.Json

(* BENCH_results.json is shared by the deterministic [bench] and
   [matrix] reports and the wall-clock [hostperf] report: each updates
   its own top-level keys and preserves the others', so one file
   carries the pinned counters, the detection-coverage table and the
   perf trajectory. *)
let read_json_obj path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.of_string s with Ok (Json.Obj fields) -> fields | Ok _ | Error _ -> []
  end
  else []

let update_json_obj path updates =
  let keep =
    List.filter (fun (k, _) -> not (List.mem_assoc k updates)) (read_json_obj path)
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj (keep @ updates)));
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Table 1: reexpression functions and their properties                *)
(* ------------------------------------------------------------------ *)

let report_table1 () =
  section "Table 1: Reexpression Functions";
  Nv_util.Tablefmt.print
    ~align:[| Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left;
              Nv_util.Tablefmt.Left |]
    ~header:[ "Variation"; "Target Type"; "Reexpression"; "Inverse" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.Reexpression.variation;
             r.Reexpression.target_type;
             r.Reexpression.r0 ^ " ; " ^ r.Reexpression.r1;
             r.Reexpression.r0_inv ^ " ; " ^ r.Reexpression.r1_inv;
           ])
         Reexpression.table1)
    ();
  (* Verify the UID row's two obligations at many points. *)
  let prng = Nv_util.Prng.create ~seed:2008 in
  let r0 = Reexpression.uid_for_variant 0 in
  let r1 = Reexpression.uid_for_variant 1 in
  let trials = 100_000 in
  let inverse_ok = ref 0 and disjoint_ok = ref 0 in
  for _ = 1 to trials do
    let x = Word.mask (Int64.to_int (Nv_util.Prng.bits64 prng)) in
    if Reexpression.inverse_holds r0 x && Reexpression.inverse_holds r1 x then
      incr inverse_ok;
    if Reexpression.disjoint_at r0 r1 x then incr disjoint_ok
  done;
  Printf.printf
    "UID variation properties over %d random words: inverse %d/%d, disjointness %d/%d\n"
    trials !inverse_ok trials !disjoint_ok trials;
  let stored0 = r0.Reexpression.encode 33 lxor 0x80000000 in
  let stored1 = r1.Reexpression.encode 33 lxor 0x80000000 in
  Printf.printf
    "known weakness: flipping only bit 31 of both stored values decodes to 0x%08X in \
     both variants (undetectable)\n"
    (r0.Reexpression.decode stored0);
  assert (r0.Reexpression.decode stored0 = r1.Reexpression.decode stored1);
  (* The portfolio: every shipped variation passes the machine-checked
     witnesses — inverse + declared form per variant, all-pairs
     disjointness across variants. *)
  print_newline ();
  Printf.printf "portfolio witnesses (selfcheck per variant, all-pairs disjointness):\n";
  List.iter
    (fun (name, v) ->
      let specs =
        Array.map (fun s -> s.Variation.uid) v.Variation.variants
      in
      Array.iter
        (fun spec ->
          match Reexpression.selfcheck spec with
          | Ok () -> ()
          | Error x -> failwith (Printf.sprintf "%s: selfcheck failed at 0x%08X" name x))
        specs;
      (match Reexpression.all_pairs_disjoint specs with
      | Ok () -> ()
      | Error (i, j, _) ->
        failwith (Printf.sprintf "%s: variants %d/%d not disjoint" name i j));
      Printf.printf "  %-22s %d variants: inverse OK, all pairs PROVEN disjoint\n" name
        (Variation.count v))
    Variation.portfolio;
  (* And the regression the per-variant keys fix: the pre-fix shared
     key loses disjointness for the (1, 2) pair. *)
  (match
     Reexpression.all_pairs_disjoint
       (Array.map (fun s -> s.Variation.uid) (Variation.shared_key 3).Variation.variants)
   with
  | Error (1, 2, Some x) ->
    Printf.printf
      "  %-22s REFUTED: pre-fix shared key collides on pair (1,2) at 0x%08X\n"
      "uid-shared-key-3" x
  | _ -> failwith "shared_key 3 unexpectedly passed the disjointness witness")

(* ------------------------------------------------------------------ *)
(* Table 2: detection system calls                                     *)
(* ------------------------------------------------------------------ *)

let table2_demo_source =
  {|int main(void) {
      uid_t me = getuid();
      uid_t checked = uid_value(me);
      int same_path = cond_chk(1);
      if (cc_eq(me, checked) == 0) { return 1; }
      if (cc_neq(me, checked) == 1) { return 2; }
      if (cc_lt(me, checked) == 1) { return 3; }
      if (cc_leq(me, checked) == 0) { return 4; }
      if (cc_gt(me, checked) == 1) { return 5; }
      if (cc_geq(me, checked) == 0) { return 6; }
      if (same_path == 0) { return 7; }
      return 0;
    }|}

(* Turn on the monitor's flight recorder, so every checked call leaves
   a "[<syscall>] <summary>" note in its coordinator ring. *)
let record_notes sys =
  Nv_util.Trace.set_enabled (Monitor.trace_session (Nsystem.monitor sys)) true

(* The recorded notes, oldest first, as (syscall name, summary) pairs. *)
let notes sys =
  let module Trace = Nv_util.Trace in
  let split text =
    let close = String.index text ']' in
    ( String.sub text 1 (close - 1),
      String.sub text (close + 2) (String.length text - close - 2) )
  in
  List.concat_map
    (fun ring ->
      if Trace.ring_name ring <> "coordinator" then []
      else
        List.filter_map
          (fun e ->
            match e.Trace.kind with Trace.Note text -> Some (split text) | _ -> None)
          (Trace.events ring))
    (Trace.rings (Monitor.trace_session (Nsystem.monitor sys)))

let run_table2_demo () =
  let sys =
    Nsystem.of_one_image ~variation:Variation.uid_diversity
      (Nv_minic.Codegen.compile_source table2_demo_source)
  in
  record_notes sys;
  let outcome = Nsystem.run sys in
  let detection name =
    List.exists
      (fun (n, sg) -> Nv_os.Syscall.is_detection_call n && sg.Nv_os.Syscall.name = name)
      Nv_os.Syscall.all
  in
  (outcome, List.filter (fun (name, _) -> detection name) (notes sys))

let report_table2 () =
  section "Table 2: Detection System Calls";
  Nv_util.Tablefmt.print
    ~align:[| Nv_util.Tablefmt.Left; Nv_util.Tablefmt.Left |]
    ~header:[ "Function Signature"; "Description" ]
    ~rows:
      [
        [ "uid_t uid_value(uid_t)";
          "Compares parameter value (across variants) and returns passed value." ];
        [ "bool cond_chk(bool)"; "Checks conditional value given between variants is the same." ];
        [ "bool cc_eq(uid_t, uid_t) .. cc_geq"; "Compares parameters and returns the truth value." ];
      ]
    ();
  let outcome, events = run_table2_demo () in
  Printf.printf "live demo under the 2-variant UID variation (exit %s):\n"
    (match outcome with
    | Monitor.Exited n -> string_of_int n
    | Monitor.Alarm r -> "ALARM " ^ Nv_core.Alarm.to_string r
    | _ -> "?");
  List.iter (fun (name, note) -> Printf.printf "  %-10s %s\n" name note) events

(* ------------------------------------------------------------------ *)
(* Table 3: performance                                                *)
(* ------------------------------------------------------------------ *)

let report_table3 () =
  section "Table 3: Performance Results (simulated testbed)";
  match Nv_workload.Table3.run ~requests:40 () with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok rows ->
    print_string (Nv_workload.Table3.render rows);
    print_newline ();
    print_endline "Shape comparison against the published Table 3 (relative to config1 or";
    print_endline "config3, as the paper reports):";
    let cell config f =
      let row = List.find (fun r -> r.Nv_workload.Table3.config = config) rows in
      f row.Nv_workload.Table3.cell
    in
    let ratios label ours paper =
      Printf.printf "  %-42s ours %+6.1f%%  paper %+6.1f%%\n" label (100. *. ours)
        (100. *. paper)
    in
    let sat c = cell c (fun x -> x.Nv_workload.Table3.sat.Nv_workload.Webbench.throughput_kb_s) in
    let unsat c = cell c (fun x -> x.Nv_workload.Table3.unsat.Nv_workload.Webbench.throughput_kb_s) in
    let lat_sat c = cell c (fun x -> x.Nv_workload.Table3.sat.Nv_workload.Webbench.latency_ms) in
    let lat_unsat c = cell c (fun x -> x.Nv_workload.Table3.unsat.Nv_workload.Webbench.latency_ms) in
    let c1 = Deploy.Unmodified_single and c2 = Deploy.Transformed_single in
    let c3 = Deploy.Two_variant_address and c4 = Deploy.Two_variant_uid in
    ratios "config2 vs 1, unsat throughput" ((unsat c2 -. unsat c1) /. unsat c1) (-0.037);
    ratios "config3 vs 1, unsat throughput" ((unsat c3 -. unsat c1) /. unsat c1) (-0.122);
    ratios "config3 vs 1, unsat latency" ((lat_unsat c3 -. lat_unsat c1) /. lat_unsat c1) 0.129;
    ratios "config3 vs 1, sat throughput" ((sat c3 -. sat c1) /. sat c1) (-0.563);
    ratios "config3 vs 1, sat latency" ((lat_sat c3 -. lat_sat c1) /. lat_sat c1) 1.289;
    ratios "config4 vs 3, unsat throughput" ((unsat c4 -. unsat c3) /. unsat c3) (-0.011);
    ratios "config4 vs 3, sat throughput" ((sat c4 -. sat c3) /. sat c3) (-0.045);
    ratios "config4 vs 3, sat latency" ((lat_sat c4 -. lat_sat c3) /. lat_sat c3) 0.030

(* ------------------------------------------------------------------ *)
(* Figure 1: two-variant address partitioning                          *)
(* ------------------------------------------------------------------ *)

let figure1_attack_source =
  Printf.sprintf "int main(void) { int *p = (int*)0x%X; return *p; }"
    (Variation.low_base + 64)

let run_figure1 () =
  let image = Nv_minic.Codegen.compile_source figure1_attack_source in
  let benign =
    Nsystem.run (Nsystem.of_one_image ~variation:Variation.single image)
  in
  let partitioned =
    Nsystem.run (Nsystem.of_one_image ~variation:Variation.address_partition image)
  in
  (benign, partitioned)

let report_figure1 () =
  section "Figure 1: Two-Variant Address Partitioning";
  Printf.printf
    "attack input: dereference of the absolute address 0x%08X (valid in variant 0's \
     partition only)\n"
    (Variation.low_base + 64);
  let benign, partitioned = run_figure1 () in
  (match benign with
  | Monitor.Exited _ ->
    Printf.printf
      "  single process      : proceeds (the injected address is dereferenced) - attack \
       lands\n"
  | _ -> Printf.printf "  single process      : unexpected\n");
  match partitioned with
  | Monitor.Alarm reason ->
    Printf.printf "  2-variant partition : ALARM - %s\n" (Nv_core.Alarm.to_string reason)
  | _ -> Printf.printf "  2-variant partition : unexpected\n"

(* ------------------------------------------------------------------ *)
(* Figure 2: data diversity at the interpreter boundaries              *)
(* ------------------------------------------------------------------ *)

let run_figure2 () =
  match Deploy.build Deploy.Two_variant_uid with
  | Error e -> failwith e
  | Ok sys ->
    record_notes sys;
    (match Nsystem.serve sys (Nv_httpd.Http.get "/") with
    | Nsystem.Served _ -> ()
    | Nsystem.Stopped _ -> failwith "figure2: serving failed");
    sys

let report_figure2 () =
  section "Figure 2: N-Variant System with Data Diversity (request trace)";
  print_endline
    "one request through the case-study server under the UID variation;\n\
     every rendezvous shows the canonicalization the monitor performed:";
  let sys = run_figure2 () in
  let interesting = [ "open"; "read"; "seteuid"; "geteuid"; "cc_eq"; "write"; "uid_value" ] in
  List.iteri
    (fun i (name, note) ->
      if List.mem name interesting && i < 40 then Printf.printf "  [%s] %s\n" name note)
    (notes sys);
  let stats = Monitor.stats (Nsystem.monitor sys) in
  Printf.printf
    "monitor counters: %d rendezvous; %s instructions; %d input bytes replicated; %d \
     output writes checked\n"
    stats.Monitor.st_rendezvous
    (String.concat "+"
       (Array.to_list (Array.map string_of_int stats.Monitor.st_instructions)))
    stats.Monitor.st_input_bytes_replicated stats.Monitor.st_output_writes_checked

(* ------------------------------------------------------------------ *)
(* X1: transformation change counts (the paper's 73 Apache changes)    *)
(* ------------------------------------------------------------------ *)

let report_changes () =
  section "X1: Source Transformation Change Counts (vs. the paper's Apache study)";
  match Deploy.transform_report () with
  | Error e -> Printf.printf "FAILED: %s\n" e
  | Ok r ->
    Nv_util.Tablefmt.print
      ~header:[ "category"; "this server"; "paper (Apache)" ]
      ~rows:
        [
          [ "reexpressed UID constants"; string_of_int r.Ut.constants; "15" ];
          [ "uid_value exposures"; string_of_int r.Ut.uid_value_calls; "16" ];
          [ "comparison exposures (cc_*)"; string_of_int r.Ut.cc_calls; "22" ];
          [ "conditional checks (cond_chk)"; string_of_int r.Ut.cond_chks; "20" ];
          [ "log scrubs"; string_of_int r.Ut.log_scrubs; "1 (manual)" ];
          [ "total"; string_of_int (Ut.total_changes r); "73" ];
        ]
      ();
    print_endline
      "(our server is ~20x smaller than Apache; the point is the same categories\n\
       appear, found fully automatically)"

(* ------------------------------------------------------------------ *)
(* X2: attack matrix                                                   *)
(* ------------------------------------------------------------------ *)

let report_matrix ?(path = "BENCH_results.json") () =
  section "X2: Attack Class x Configuration Detection Matrix";
  let matrix = Nv_attacks.Campaign.run_matrix () in
  print_string (Nv_attacks.Campaign.render_matrix matrix);
  print_endline
    "expected story: UID corruption defeats every deployment except the diversified\n\
     ones; the bit-31 row reproduces the paper's admitted reexpression-key escape\n\
     (closed by the rotation component of composed3/composed4); the guessed-key row\n\
     escalates wherever non-zero variants share one fixed key (config4's published\n\
     key, sharedkey3's pre-fix bug) and is caught by per-variant and per-boot keys;\n\
     the zero-injection row defeats bare rotations (rotonly3) but no composition;\n\
     code injection is stopped by the address partition.";
  let composed_undetected =
    List.filter
      (fun (_, config, _) ->
        List.mem config [ Deploy.Composed_three; Deploy.Composed_four ])
      (Nv_attacks.Campaign.undetected_cells matrix)
  in
  Printf.printf "undetected cells in the composed3/composed4 columns: %d\n"
    (List.length composed_undetected);
  update_json_obj path
    [ ("attack_matrix", Nv_attacks.Campaign.matrix_json matrix) ];
  Printf.printf "attack_matrix written to %s\n" path;
  section "X2b: Same Matrix Under the Recovery Supervisor";
  let recovered =
    Nv_attacks.Campaign.run_matrix ~recover:Nv_core.Supervisor.default_config ()
  in
  print_string (Nv_attacks.Campaign.render_matrix recovered);
  print_endline
    "recovered-vs-halted: every DETECTED cell above should flip to RECOVERED -\n\
     the supervisor rolls back to the last accept-boundary checkpoint, drops the\n\
     attack connection and keeps serving instead of fail-stopping."

(* ------------------------------------------------------------------ *)
(* X3: ablation - cc_* syscalls vs user-space comparisons              *)
(* ------------------------------------------------------------------ *)

let profile_mode mode =
  match Deploy.build ~mode Deploy.Two_variant_uid with
  | Error e -> Error e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:30 sys with
    | Error e -> Error e
    | Ok samples ->
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      Ok
        ( Nv_workload.Measure.mean_demand steady,
          Nv_workload.Webbench.run ~variants:2 ~samples:steady Nv_workload.Webbench.saturated
        ))

(* How quickly is the null-overflow corruption detected in each mode?
   Measured in syscall rendezvous between the corrupting request's
   arrival and the alarm. *)
let detection_latency mode =
  match Deploy.build ~mode Deploy.Two_variant_uid with
  | Error e -> Error e
  | Ok sys -> (
    match Nsystem.run sys with
    | Monitor.Blocked_on_accept -> (
      let monitor = Nsystem.monitor sys in
      let before = Monitor.rendezvous_count monitor in
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn
        (Nv_httpd.Http.get ("/" ^ String.make 63 'A'));
      Nv_os.Socket.client_close conn;
      match Nsystem.run sys with
      | Monitor.Alarm reason ->
        Ok (Monitor.rendezvous_count monitor - before, Nv_core.Alarm.short_label reason)
      | _ -> Error "overflow not detected")
    | _ -> Error "server did not start")

let report_ablation () =
  section "X3: Ablation - detection syscalls (cc_*) vs user-space comparisons";
  (match (detection_latency Ut.Cc_calls, detection_latency Ut.User_space) with
  | Ok (n_cc, _), Ok (n_us, _) ->
    Printf.printf
      "detection latency of the UID null-overflow (rendezvous from request to alarm):\n\
      \  cc_* mode: %d    user-space mode: %d\n\n"
      n_cc n_us
  | Error e, _ | _, Error e -> Printf.printf "latency measurement failed: %s\n" e);
  match (profile_mode Ut.Cc_calls, profile_mode Ut.User_space) with
  | Ok (d_cc, r_cc), Ok (d_us, r_us) ->
    Nv_util.Tablefmt.print
      ~header:[ "mode"; "rendezvous/req"; "sat KB/s"; "sat ms" ]
      ~rows:
        [
          [
            "cc_* syscalls (paper design)";
            string_of_int d_cc.Nv_workload.Measure.rendezvous;
            Printf.sprintf "%.0f" r_cc.Nv_workload.Webbench.throughput_kb_s;
            Printf.sprintf "%.2f" r_cc.Nv_workload.Webbench.latency_ms;
          ];
          [
            "user-space (reversed operators)";
            string_of_int d_us.Nv_workload.Measure.rendezvous;
            Printf.sprintf "%.0f" r_us.Nv_workload.Webbench.throughput_kb_s;
            Printf.sprintf "%.2f" r_us.Nv_workload.Webbench.latency_ms;
          ];
        ]
      ();
    print_endline
      "the user-space mode trades a few syscalls per request for coarser detection:\n\
       corrupted comparisons only surface at the next real UID-bearing kernel call\n\
       (Section 5's discussion of detection precision vs. cost)."
  | Error e, _ | _, Error e -> Printf.printf "FAILED: %s\n" e

(* ------------------------------------------------------------------ *)
(* BENCH_results.json: machine-readable per-configuration results      *)
(* ------------------------------------------------------------------ *)

let json_of_webbench (r : Nv_workload.Webbench.result) =
  Json.Obj
    [
      ("requests", Json.Num (float_of_int r.Nv_workload.Webbench.requests_completed));
      ("throughput_kb_s", Json.Num r.Nv_workload.Webbench.throughput_kb_s);
      ("latency_ms", Json.Num r.Nv_workload.Webbench.latency_ms);
      ("latency_p50_ms", Json.Num r.Nv_workload.Webbench.latency_p50_ms);
      ("latency_p99_ms", Json.Num r.Nv_workload.Webbench.latency_p99_ms);
      ("cpu_utilization", Json.Num r.Nv_workload.Webbench.cpu_utilization);
      ("rendezvous", Json.Num (float_of_int r.Nv_workload.Webbench.rendezvous_total));
    ]

let bench_requests = 12

(* ------------------------------------------------------------------ *)
(* fleet: open-loop serving at a million-user population               *)
(* ------------------------------------------------------------------ *)

let fleet_users = 1_000_000

let fleet_seed = 11

let fleet_replicas = 8

let fleet_spec arrival =
  {
    Nv_workload.Openload.replicas = fleet_replicas;
    arrival;
    duration_s = 30.0;
    users = fleet_users;
    attacks_per_10k = 2;
  }

let fleet_arrivals =
  let rate = 2000.0 in
  [
    Nv_sim.Arrivals.Poisson { rate };
    Nv_sim.Arrivals.Bursty { rate; burst_mean = 16.0; intra_gap_s = 0.0005 };
    Nv_sim.Arrivals.Diurnal { rate; amplitude = 0.6; period_s = 15.0 };
  ]

let json_of_fleet (result : Nv_workload.Openload.result) =
  let r = result.Nv_workload.Openload.fleet in
  let num n = Json.Num (float_of_int n) in
  Json.Obj
    [
      ("model", Json.Str r.Nv_sim.Fleet.model);
      ("arrivals", num r.Nv_sim.Fleet.arrivals);
      ("completed", num r.Nv_sim.Fleet.completed);
      ("rejected", num r.Nv_sim.Fleet.rejected);
      ("dropped", num r.Nv_sim.Fleet.dropped);
      ("in_flight", num r.Nv_sim.Fleet.in_flight);
      ("alarms", num r.Nv_sim.Fleet.alarms);
      ("recoveries", num r.Nv_sim.Fleet.recoveries);
      ("failstops", num r.Nv_sim.Fleet.failstops);
      ("pool_hits", num r.Nv_sim.Fleet.pool_hits);
      ("pool_misses", num r.Nv_sim.Fleet.pool_misses);
      ("goodput_rps", Json.Num r.Nv_sim.Fleet.goodput_rps);
      ("goodput_kb_s", Json.Num (r.Nv_sim.Fleet.goodput_bytes_per_s /. 1024.0));
      ("latency_mean_ms", Json.Num r.Nv_sim.Fleet.latency_mean_ms);
      ("latency_p50_ms", Json.Num r.Nv_sim.Fleet.latency_p50_ms);
      ("latency_p99_ms", Json.Num r.Nv_sim.Fleet.latency_p99_ms);
      ("latency_p999_ms", Json.Num r.Nv_sim.Fleet.latency_p999_ms);
      ("availability", Json.Num r.Nv_sim.Fleet.availability);
      ("error_budget_used", Json.Num r.Nv_sim.Fleet.error_budget_used);
      ("uid_lookups", num result.Nv_workload.Openload.lookups);
      ( "comparisons_per_lookup",
        Json.Num result.Nv_workload.Openload.comparisons_per_lookup );
    ]

let report_fleet ?(path = "BENCH_results.json") () =
  section
    (Printf.sprintf "FLEET: open-loop serving, %d N-variant replicas, %d-user population"
       fleet_replicas fleet_users);
  match Deploy.build Deploy.Two_variant_uid with
  | Error e -> Printf.printf "  FAILED (%s)\n" e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:bench_requests ~seed:fleet_seed sys with
    | Error e -> Printf.printf "  profile FAILED (%s)\n" e
    | Ok samples ->
      let samples = Array.sub samples 1 (Array.length samples - 1) in
      let variants = Variation.count (Deploy.variation Deploy.Two_variant_uid) in
      let entries =
        Nv_workload.Openload.population ~seed:fleet_seed ~users:fleet_users ()
      in
      let _vfs, sizes =
        Nv_workload.Openload.passwd_world ~entries
          ~variation:(Deploy.variation Deploy.Two_variant_uid)
      in
      Printf.printf "  unshared variant files:";
      Array.iteri (fun i n -> Printf.printf " /etc/passwd-%d %d B" i n) sizes;
      print_newline ();
      let rows =
        List.map
          (fun arrival ->
            let result =
              Nv_workload.Openload.run ~seed:fleet_seed ~entries ~variants ~samples
                (fleet_spec arrival)
            in
            let r = result.Nv_workload.Openload.fleet in
            Printf.printf
              "  %-8s %6d reqs: p50 %.2f ms, p99 %.2f ms, p999 %.2f ms, %.0f req/s, \
               avail %.5f, budget %.2f, %.1f cmp/lookup\n"
              r.Nv_sim.Fleet.model r.Nv_sim.Fleet.arrivals r.Nv_sim.Fleet.latency_p50_ms
              r.Nv_sim.Fleet.latency_p99_ms r.Nv_sim.Fleet.latency_p999_ms
              r.Nv_sim.Fleet.goodput_rps r.Nv_sim.Fleet.availability
              r.Nv_sim.Fleet.error_budget_used
              result.Nv_workload.Openload.comparisons_per_lookup;
            json_of_fleet result)
          fleet_arrivals
      in
      update_json_obj path
        [
          ( "fleet",
            Json.Obj
              [
                ("population", Json.Num (float_of_int (List.length entries)));
                ("replicas", Json.Num (float_of_int fleet_replicas));
                ( "variant_file_bytes",
                  Json.List
                    (Array.to_list (Array.map (fun n -> Json.Num (float_of_int n)) sizes))
                );
                ("rows", Json.List rows);
              ] );
        ];
      Printf.printf "wrote %s (fleet rows)\n" path)

let bench_config config =
  match Deploy.build config with
  | Error e -> Error e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:bench_requests sys with
    | Error e -> Error e
    | Ok samples ->
      (* Monitor/kernel counters accumulated over the profiled requests
         (real guest execution, not the queueing simulation). *)
      let reg = Nsystem.metrics sys in
      let counter name =
        Json.Num
          (float_of_int (Option.value ~default:0 (Nv_util.Metrics.find_counter reg name)))
      in
      let variants = Nv_core.Variation.count (Deploy.variation config) in
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      let demand = Nv_workload.Measure.mean_demand steady in
      let unsat =
        Nv_workload.Webbench.run ~variants ~samples:steady Nv_workload.Webbench.unsaturated
      in
      let sat =
        Nv_workload.Webbench.run ~variants ~samples:steady Nv_workload.Webbench.saturated
      in
      Ok
        ( unsat,
          sat,
          Json.Obj
            [
              ("config", Json.Str (Deploy.name config));
              ("description", Json.Str (Deploy.description config));
              ("variants", Json.Num (float_of_int variants));
              ("requests_profiled", Json.Num (float_of_int bench_requests));
              ( "demand",
                Json.Obj
                  [
                    ( "instructions",
                      Json.Num (float_of_int demand.Nv_workload.Measure.instructions) );
                    ( "rendezvous",
                      Json.Num (float_of_int demand.Nv_workload.Measure.rendezvous) );
                    ( "response_bytes",
                      Json.Num (float_of_int demand.Nv_workload.Measure.response_bytes) );
                  ] );
              ( "monitor",
                Json.Obj
                  [
                    ("rendezvous", counter "monitor.rendezvous");
                    ("checks_performed", counter "monitor.checks.performed");
                    ("checks_failed", counter "monitor.checks.failed");
                    ("kernel_syscalls", counter "kernel.syscalls");
                    ("input_bytes_replicated", counter "monitor.input_bytes_replicated");
                    ("output_writes_checked", counter "monitor.output_writes_checked");
                  ] );
              ("unsaturated", json_of_webbench unsat);
              ("saturated", json_of_webbench sat);
              ("metrics", Nv_util.Metrics.to_json_value reg);
            ] ))

let report_bench ?(path = "BENCH_results.json") () =
  section "BENCH: per-configuration results (JSON)";
  (* The four configurations are independent systems: measure them
     concurrently when NV_PARALLEL=1. bench_config is pure in the host
     world (each call builds its own system), so the parallel results
     are the ones the sequential loop would print. *)
  let cells =
    let configs = Array.of_list Deploy.all in
    if Nv_util.Dompool.env_default () then Nv_util.Dompool.map_array bench_config configs
    else Array.map bench_config configs
  in
  let configs =
    List.filter_map
      (fun (config, cell) ->
        match cell with
        | Error e ->
          Printf.printf "  %s: FAILED (%s)\n" (Deploy.name config) e;
          None
        | Ok (unsat, sat, json) ->
          Printf.printf "  %s: unsat %s | sat %s\n" (Deploy.name config)
            (Format.asprintf "%a" Nv_workload.Webbench.pp_result unsat)
            (Format.asprintf "%a" Nv_workload.Webbench.pp_result sat);
          Some json)
      (List.combine Deploy.all (Array.to_list cells))
  in
  update_json_obj path
    [
      ("source", Json.Str "nvariant bench harness");
      ("requests_per_config", Json.Num (float_of_int bench_requests));
      ("configurations", Json.List configs);
    ];
  Printf.printf "wrote %s (%d configurations)\n" path (List.length configs);
  (* The acceptance row for fleet-scale serving rides along with bench. *)
  report_fleet ~path ()

(* ------------------------------------------------------------------ *)
(* measure: the one host-clock timing loop                             *)
(* ------------------------------------------------------------------ *)

(* Every host-time figure in this harness comes from [measure]. A
   configuration is a trial function whose caller has already set it up,
   outside the clock: calling it prepares one trial (still untimed) and
   returns the thunk that is timed. [measure] runs [warmup] untimed
   trials of every configuration, then [trials] timed ones, interleaved
   (trial k of every configuration runs before trial k+1 of any) so host
   drift hits the configurations alike. It returns, per configuration,
   each timed trial's result paired with its seconds. *)
let measure ~warmup ~trials configs =
  let time trial =
    let run = trial () in
    let t0 = Monotonic_clock.now () in
    let result = run () in
    (result, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)
  in
  let configs = Array.of_list configs in
  for _ = 1 to warmup do
    Array.iter (fun trial -> ignore (time trial)) configs
  done;
  let rounds = Array.init trials (fun _ -> Array.map time configs) in
  List.init (Array.length configs) (fun c -> Array.map (fun round -> round.(c)) rounds)

let summarize f trials = Nv_util.Stats.summarize (Array.map f trials)

(* A median with the range of the trials it summarizes. *)
let spread fmt (s : Nv_util.Stats.summary) =
  Printf.sprintf "%s (%s-%s)" (fmt s.p50) (fmt s.min) (fmt s.max)

(* ------------------------------------------------------------------ *)
(* hostperf: host wall-clock guest-MIPS                                *)
(* ------------------------------------------------------------------ *)

(* Unlike every other report, hostperf measures the *host* cost of
   running the guest: wall-clock guest-MIPS across the three execution
   tiers — reference decode, predecoded icache, and the basic-block
   compiler — for a pure interpreter microbench and for the full
   2-variant monitored server. Every figure is the median of warmed,
   interleaved trials, and every ratio is a ratio of medians from the
   same run. Engines and variant-execution modes are passed explicitly,
   so NV_ENGINE and NV_PARALLEL do not change what a row measures. *)

let hostperf_loop_iters = 150_000

let hostperf_program =
  Printf.sprintf
    {|
      .data
      cell: .word 0
      .text
      la r6, cell
      mov r1, #0
      mov r2, #%d
    loop:
      add r1, r1, #1
      ld r3, [r6]
      add r3, r3, r1
      st [r6], r3
      and r4, r3, #0xFF
      brlt r1, r2, loop
      halt
    |}
    hostperf_loop_iters

let mips (instructions, seconds) = float_of_int instructions /. max seconds 1e-9 /. 1e6

(* Each trial runs the microbench to halt from a freshly loaded image
   and returns its CPU. *)
let interp_row engine =
  let image = Nv_vm.Asm.assemble hostperf_program in
  fun () ->
    let loaded = Nv_vm.Image.load image ~base:0x1000 ~size:(1 lsl 20) ~tag:0 in
    Nv_vm.Memory.set_engine loaded.Nv_vm.Image.memory engine;
    fun () ->
      match Nv_vm.Cpu.run loaded.Nv_vm.Image.cpu ~fuel:10_000_000 with
      | Nv_vm.Cpu.Trapped Nv_vm.Cpu.Halt_trap -> loaded.Nv_vm.Image.cpu
      | _ -> failwith "hostperf: interpreter microbench did not halt"

(* The 2-variant monitored server, built once per row and kept warm:
   each trial serves [requests] more requests and returns the guest
   instructions they retired. *)
let monitor_row ?(trace = false) ~engine ~requests () =
  match Deploy.build ~parallel:false ~engine Deploy.Two_variant_uid with
  | Error e -> failwith e
  | Ok sys ->
    let monitor = Nsystem.monitor sys in
    if trace then Nv_util.Trace.set_enabled (Monitor.trace_session monitor) true;
    fun () ->
      let instr0 = Monitor.instructions_retired monitor in
      fun () ->
        for _ = 1 to requests do
          match Nsystem.serve sys (Nv_httpd.Http.get "/") with
          | Nsystem.Served _ -> ()
          | Nsystem.Stopped _ -> failwith "hostperf: monitored request failed"
        done;
        Monitor.instructions_retired monitor - instr0

(* The supervisor's per-accept checkpoint on the warm config4 server
   (no supervisor, so nothing else snapshots it), parked at an accept.
   A snapshot trial serves one request outside the clock, then times
   the [Monitor.snapshot] that copies the pages it wrote; it returns
   those pages, summed over the variants. A restore trial serves one
   request from the warm state, then times the [Monitor.restore] that
   rolls it back, so every trial starts from the same state. *)
let checkpoint_rows () =
  let parked () =
    match
      Deploy.build ~parallel:false ~engine:Nv_vm.Memory.Icache Deploy.Two_variant_uid
    with
    | Error e -> failwith e
    | Ok sys ->
      (match Nsystem.run sys with
      | Monitor.Blocked_on_accept -> ()
      | _ -> failwith "hostperf: server did not park at accept");
      sys
  in
  let serve sys =
    match Nsystem.serve sys (Nv_httpd.Http.get "/") with
    | Nsystem.Served _ -> ()
    | Nsystem.Stopped _ -> failwith "hostperf: checkpointed request failed"
  in
  let dirty_pages monitor =
    List.init (Monitor.variant_count monitor) (fun i ->
        Nv_vm.Memory.dirty_pages (Monitor.loaded monitor i).Nv_vm.Image.memory)
    |> List.fold_left ( + ) 0
  in
  let snapshot_row =
    let sys = parked () in
    let monitor = Nsystem.monitor sys in
    ignore (Monitor.snapshot monitor : Monitor.snapshot);
    fun () ->
      serve sys;
      let dirty = dirty_pages monitor in
      fun () ->
        ignore (Monitor.snapshot monitor : Monitor.snapshot);
        dirty
  in
  let restore_row =
    let sys = parked () in
    let monitor = Nsystem.monitor sys in
    let warm = Monitor.snapshot monitor in
    fun () ->
      serve sys;
      fun () ->
        if Monitor.restore monitor warm <> 0 then
          failwith "hostperf: restore at an accept park dropped a connection";
        0
  in
  [ snapshot_row; restore_row ]

(* Microbench for domain-parallel variant execution: an outer loop of
   cond_chk detection calls (syscall 21) separated by pure compute
   spins. cond_chk is a relaxed call, so under the pinned-domain engine
   each variant posts its record and keeps running — the variants
   free-run concurrently all the way to exit (the one sensitive call),
   where the deferred batch is cross-checked. Sequential mode performs
   the identical checks inline on one domain, so the speedup column
   isolates what pinning buys. *)
let parperf_rendezvous = 40

let parperf_spin = 25_000

let parperf_program =
  Printf.sprintf
    {|
      .text
      mov r7, #0
      mov r8, #%d
    outer:
      mov r5, #0
      mov r6, #%d
    inner:
      add r5, r5, #1
      brlt r5, r6, inner
      mov r0, #21
      mov r1, #1
      syscall
      add r7, r7, #1
      brlt r7, r8, outer
      mov r0, #0
      mov r1, #0
      syscall
    |}
    parperf_rendezvous parperf_spin

(* Each trial runs a freshly built system to exit and returns its
   monitor. *)
let parallel_row ~variants ~parallel =
  let image = Nv_vm.Asm.assemble parperf_program in
  let variation = Variation.uid_diversity_n variants in
  fun () ->
    let sys =
      Nsystem.of_one_image ~parallel ~engine:Nv_vm.Memory.Icache ~variation image
    in
    fun () ->
      match Nsystem.run sys with
      | Monitor.Exited 0 -> Nsystem.monitor sys
      | _ -> failwith "hostperf: parallel microbench did not exit cleanly"

(* [row engine] for each engine, measured together. Every engine must
   retire the same instructions in every trial; a drift means an engine
   changed observable semantics. Returns one trial's instructions and
   the reference, icache and block guest-MIPS. *)
let engine_mips ~warmup ~trials ~retired row =
  let results =
    measure ~warmup ~trials (List.map row [ Nv_vm.Memory.Reference; Icache; Block ])
  in
  let counts = List.map (Array.map (fun (r, _) -> retired r)) results in
  if not (List.for_all (( = ) (List.hd counts)) counts) then
    failwith "hostperf: engines disagree on retired instructions";
  match List.map (summarize (fun (r, seconds) -> mips (retired r, seconds))) results with
  | [ reference; icache; block ] -> ((List.hd counts).(0), reference, icache, block)
  | _ -> assert false

let report_hostperf ?(path = "BENCH_results.json") () =
  section "HOSTPERF: host wall-clock guest-MIPS, median (min-max) of warmed trials";
  let interp_instr, interp_ref, interp_fast, interp_block =
    engine_mips ~warmup:1 ~trials:5 ~retired:Nv_vm.Cpu.instructions_retired interp_row
  in
  (* The block engine's counters for one run from a fresh load. *)
  let block_compiled, block_hits, block_invalidations =
    Nv_vm.Cpu.block_stats (interp_row Nv_vm.Memory.Block () ())
  in
  let requests = 40 in
  let mon_instr, mon_ref, mon_fast, mon_block =
    engine_mips ~warmup:1 ~trials:7 ~retired:Fun.id (fun engine ->
        monitor_row ~engine ~requests ())
  in
  let interp_speedup = interp_fast.p50 /. interp_ref.p50 in
  let mon_speedup = mon_fast.p50 /. mon_ref.p50 in
  let block_vs_icache = interp_block.p50 /. interp_fast.p50 in
  let mon_block_vs_icache = mon_block.p50 /. mon_fast.p50 in
  let mips_cell = spread (Printf.sprintf "%.2f") in
  Nv_util.Tablefmt.print
    ~header:
      [
        "configuration"; "guest instructions"; "reference MIPS"; "icache MIPS";
        "block MIPS"; "block vs icache";
      ]
    ~rows:
      [
        [
          "interpreter microbench"; string_of_int interp_instr; mips_cell interp_ref;
          mips_cell interp_fast; mips_cell interp_block;
          Printf.sprintf "%.2fx" block_vs_icache;
        ];
        [
          Printf.sprintf "2-variant monitor (%d requests)" requests;
          string_of_int mon_instr; mips_cell mon_ref; mips_cell mon_fast;
          mips_cell mon_block; Printf.sprintf "%.2fx" mon_block_vs_icache;
        ];
      ]
    ();
  Printf.printf "interpreter guest-MIPS speedup vs. reference decoder: %.2fx (target >= 3x)\n"
    interp_speedup;
  Printf.printf
    "block engine vs. icache: %.2fx on the microbench (target >= 2x); %d blocks \
     compiled, %d cache hits, %d invalidations\n"
    block_vs_icache block_compiled block_hits block_invalidations;
  let host_cores = Domain.recommended_domain_count () in
  let monitor_mips (monitor, seconds) =
    mips (Monitor.instructions_retired monitor, seconds)
  in
  let par_rows =
    List.map
      (fun variants ->
        let row parallel = parallel_row ~variants ~parallel in
        match measure ~warmup:1 ~trials:3 [ row false; row true ] with
        | [ seq; par ] ->
          let monitor = fst seq.(0) in
          let seq_mips = summarize monitor_mips seq in
          let par_mips = summarize monitor_mips par in
          ( variants,
            Monitor.instructions_retired monitor,
            (Monitor.stats monitor).Monitor.st_relaxed_checks,
            seq_mips,
            par_mips,
            par_mips.p50 /. seq_mips.p50 )
        | _ -> assert false)
      [ 2; 4 ]
  in
  Nv_util.Tablefmt.print
    ~header:
      [
        "configuration"; "guest instructions"; "relaxed checks"; "sequential MIPS";
        "parallel MIPS"; "speedup";
      ]
    ~rows:
      (List.map
         (fun (variants, instr, relaxed, seq_mips, par_mips, speedup) ->
           [
             Printf.sprintf "%d-variant relaxed microbench" variants;
             string_of_int instr; string_of_int relaxed; mips_cell seq_mips;
             mips_cell par_mips; Printf.sprintf "%.2fx" speedup;
           ])
         par_rows)
    ();
  Printf.printf
    "engine: one pinned domain per variant; host has %d core(s) (parallel speedup\n\
     needs a multi-core host — on one core both modes run the same relaxed protocol)\n"
    host_cores;
  (* Flight-recorder rows on the same monitored server: baseline,
     disabled and enabled. Baseline and disabled are the same program —
     the recorder is off in both — so their ratio bounds measurement
     noise, not the cost of the guarded call sites (a baseline without
     those sites would need a build switch). That ratio is the *best*
     pair across trials: scheduler noise on a loaded host easily fakes a
     several-percent gap in any single pair, so only a gap present in
     every pair fails the 2% budget. *)
  let trace_requests = 120 in
  let trace_instr, trace_plain, trace_off, trace_on, best_off_ratio =
    let row trace =
      monitor_row ~trace ~engine:Nv_vm.Memory.Icache ~requests:trace_requests ()
    in
    match measure ~warmup:1 ~trials:5 [ row false; row false; row true ] with
    | [ plain; off; on_ ] ->
      ( fst plain.(0),
        summarize mips plain,
        summarize mips off,
        summarize mips on_,
        Array.fold_left Float.max 0. (Array.map2 (fun p o -> mips o /. mips p) plain off) )
    | _ -> assert false
  in
  let disabled_frac = best_off_ratio -. 1.0 in
  Nv_util.Tablefmt.print
    ~header:
      [
        "flight recorder"; "guest instructions"; "baseline MIPS"; "disabled MIPS";
        "enabled MIPS"; "ratio";
      ]
    ~rows:
      [
        [
          Printf.sprintf "2-variant monitor (%d requests)" trace_requests;
          string_of_int trace_instr; mips_cell trace_plain; mips_cell trace_off;
          mips_cell trace_on;
          Printf.sprintf "%.3fx" (trace_on.p50 /. trace_off.p50);
        ];
      ]
    ();
  Printf.printf
    "flight recorder disabled vs. baseline (same program, recorder off in both): %+.2f%% \
     best pair (noise bound: within 2%%)\n"
    (100.0 *. disabled_frac);
  let snapshot_us, restore_us, dirty_per_request =
    match measure ~warmup:2 ~trials:15 (checkpoint_rows ()) with
    | [ snap; restore ] ->
      let us = summarize (fun (_, seconds) -> seconds *. 1e6) in
      (us snap, us restore, (summarize (fun (dirty, _) -> float_of_int dirty) snap).p50)
    | _ -> assert false
  in
  let pages_per_segment = Variation.default_segment_size / Nv_vm.Memory.page_size in
  let us_cell = spread (Printf.sprintf "%.1f") in
  Nv_util.Tablefmt.print
    ~header:[ "checkpoint (config4, parked)"; "snapshot us"; "restore us"; "dirty pages" ]
    ~rows:
      [
        [
          "one request between checkpoints"; us_cell snapshot_us; us_cell restore_us;
          Printf.sprintf "%.0f of 2 x %d" dirty_per_request pages_per_segment;
        ];
      ]
    ();
  let mode name instructions ref_mips fast_mips speedup =
    ( name,
      Json.Obj
        [
          ("instructions", Json.Num (float_of_int instructions));
          ("reference_mips", Json.Num ref_mips);
          ("cached_mips", Json.Num fast_mips);
          ("speedup", Json.Num speedup);
        ] )
  in
  let par_mode (variants, instructions, relaxed, seq_mips, par_mips, speedup) =
    ( Printf.sprintf "parallel_%dvariant" variants,
      Json.Obj
        [
          ("instructions", Json.Num (float_of_int instructions));
          ("relaxed_checks", Json.Num (float_of_int relaxed));
          ("sequential_mips", Json.Num seq_mips.Nv_util.Stats.p50);
          ("parallel_mips", Json.Num par_mips.Nv_util.Stats.p50);
          ("speedup", Json.Num speedup);
          ("engine_workers", Json.Num (float_of_int variants));
          ("host_cores", Json.Num (float_of_int host_cores));
        ] )
  in
  update_json_obj path
    [
      ( "hostperf",
        Json.Obj
          ([
             mode "interpreter" interp_instr interp_ref.p50 interp_fast.p50 interp_speedup;
             mode "monitor_2variant" mon_instr mon_ref.p50 mon_fast.p50 mon_speedup;
             ( "block",
               Json.Obj
                 [
                   ("instructions", Json.Num (float_of_int interp_instr));
                   ("mips", Json.Num interp_block.p50);
                   ("icache_mips", Json.Num interp_fast.p50);
                   ("reference_mips", Json.Num interp_ref.p50);
                   ("speedup_vs_icache", Json.Num block_vs_icache);
                   ("speedup_vs_reference", Json.Num (interp_block.p50 /. interp_ref.p50));
                   ("monitor_mips", Json.Num mon_block.p50);
                   ("monitor_speedup_vs_icache", Json.Num mon_block_vs_icache);
                   ("compiled_blocks", Json.Num (float_of_int block_compiled));
                   ("block_hits", Json.Num (float_of_int block_hits));
                   ("invalidations", Json.Num (float_of_int block_invalidations));
                 ] );
             ( "checkpoint",
               Json.Obj
                 [
                   ("snapshot_us", Json.Num snapshot_us.p50);
                   ("restore_us", Json.Num restore_us.p50);
                   ("dirty_pages_per_request", Json.Num dirty_per_request);
                   ("pages_per_segment", Json.Num (float_of_int pages_per_segment));
                 ] );
             ( "trace_overhead",
               Json.Obj
                 [
                   ("instructions", Json.Num (float_of_int trace_instr));
                   ("baseline_mips", Json.Num trace_plain.p50);
                   ("disabled_mips", Json.Num trace_off.p50);
                   ("enabled_mips", Json.Num trace_on.p50);
                   ("enabled_over_disabled", Json.Num (trace_on.p50 /. trace_off.p50));
                   ("disabled_vs_monitor_frac", Json.Num disabled_frac);
                 ] );
           ]
          @ List.map par_mode par_rows) );
    ];
  Printf.printf "updated %s (hostperf)\n" path

(* ------------------------------------------------------------------ *)
(* micro: host time of each report's kernel                            *)
(* ------------------------------------------------------------------ *)

(* One row per table/figure, each a [measure] configuration whose setup
   (profiling, building, typechecking) runs once, before the clock. *)
let micro_rows () =
  let typed_httpd =
    match
      Nv_minic.Typecheck.check (Nv_minic.Parser.parse (Nv_httpd.Httpd_source.source ()))
    with
    | Ok t -> t
    | Error _ -> failwith "typecheck failed"
  in
  [
    ( "table1/reexpression-properties",
      fun () () ->
        let r0 = Reexpression.uid_for_variant 0 in
        let r1 = Reexpression.uid_for_variant 1 in
        for x = 0 to 4095 do
          assert (Reexpression.inverse_holds r1 x);
          assert (Reexpression.disjoint_at r0 r1 x)
        done );
    ( "table2/detection-syscall-roundtrip",
      fun () () ->
        match run_table2_demo () with
        | Monitor.Exited 0, _ -> ()
        | _ -> failwith "table2 demo failed" );
    ( "table3/webbench-simulation",
      let samples =
        match Deploy.build Deploy.Two_variant_uid with
        | Error e -> failwith e
        | Ok sys -> (
          match Nv_workload.Measure.profile ~requests:10 sys with
          | Error e -> failwith e
          | Ok samples -> samples)
      in
      fun () () ->
        ignore
          (Nv_workload.Webbench.run ~variants:2 ~samples Nv_workload.Webbench.saturated) );
    ( "figure1/address-partition-detection",
      fun () () ->
        match run_figure1 () with
        | _, Monitor.Alarm _ -> ()
        | _ -> failwith "figure1 attack not detected" );
    ( "figure2/monitored-request",
      let sys =
        match Deploy.build Deploy.Two_variant_uid with Ok s -> s | Error e -> failwith e
      in
      fun () () ->
        match Nsystem.serve sys (Nv_httpd.Http.get "/") with
        | Nsystem.Served _ -> ()
        | Nsystem.Stopped _ -> failwith "serve failed" );
    ( "x1/httpd-transformation",
      fun () () ->
        let instrumented, _ = Ut.instrument typed_httpd in
        ignore (Ut.reexpress ~f:(Reexpression.uid_for_variant 1) instrumented) );
    ( "x2/uid-overflow-detection",
      let attack = Option.get (Nv_attacks.Campaign.find "uid-null-overflow") in
      fun () () ->
        match Nv_attacks.Campaign.run_attack attack Deploy.Two_variant_uid with
        | Ok (Nv_attacks.Campaign.Detected _) -> ()
        | _ -> failwith "x2 cell changed" );
    ( "x3/user-space-mode-roundtrip",
      fun () () ->
        let instrumented, _ = Ut.instrument ~mode:Ut.User_space typed_httpd in
        ignore
          (Ut.reexpress ~mode:Ut.User_space ~f:(Reexpression.uid_for_variant 1)
             instrumented) );
  ]

let duration seconds =
  if seconds >= 1. then Printf.sprintf "%.2f s" seconds
  else if seconds >= 1e-3 then Printf.sprintf "%.2f ms" (seconds *. 1e3)
  else if seconds >= 1e-6 then Printf.sprintf "%.2f us" (seconds *. 1e6)
  else Printf.sprintf "%.0f ns" (seconds *. 1e9)

let run_micro () =
  section "Micro-benchmarks (one per table/figure), median (min-max) of warmed trials";
  let rows = micro_rows () in
  let timings = measure ~warmup:2 ~trials:11 (List.map snd rows) in
  Nv_util.Tablefmt.print
    ~header:[ "experiment harness"; "time per run" ]
    ~rows:
      (List.map2
         (fun (name, _) trials -> [ name; spread duration (summarize snd trials) ])
         rows timings)
    ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let reports =
  [
    ("table1", report_table1);
    ("table2", report_table2);
    ("table3", report_table3);
    ("figure1", report_figure1);
    ("figure2", report_figure2);
    ("table-changes", report_changes);
    ("matrix", fun () -> report_matrix ());
    ("ablation", report_ablation);
    ("bench", fun () -> report_bench ());
    ("fleet", fun () -> report_fleet ());
    ("hostperf", fun () -> report_hostperf ());
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] ->
    List.iter (fun (_, f) -> f ()) reports;
    run_micro ()
  | [ _; "micro" ] -> run_micro ()
  | [ _; "bench"; path ] -> report_bench ~path ()
  | [ _; "fleet"; path ] -> report_fleet ~path ()
  | [ _; "hostperf"; path ] -> report_hostperf ~path ()
  | [ _; "matrix"; path ] -> report_matrix ~path ()
  | [ _; name ] -> (
    match List.assoc_opt name reports with
    | Some f -> f ()
    | None ->
      Printf.eprintf "unknown report %S; available: %s, micro, all\n" name
        (String.concat ", " (List.map fst reports));
      exit 2)
  | _ ->
    prerr_endline
      "usage: main.exe [report|micro|all] | bench [path] | fleet [path] | hostperf \
       [path] | matrix [path]";
    exit 2
