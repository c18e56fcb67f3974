(* Recovery-layer suite: snapshot/rollback correctness, the
   supervisor's checkpoint/budget discipline, recovered attack
   verdicts, and the fault-injection campaign.

   The headline test is the pinned self-healing scenario from the
   recovery design: an attacked httpd raises an alarm, the supervisor
   rolls back to the last accept-boundary checkpoint, the attack
   connection is dropped, and at least one subsequent benign request is
   served byte-identically to the pre-attack baseline, with
   [supervisor.recoveries] = 1. Every scenario is driven differentially
   under sequential and parallel stepping (the test_parallel.ml
   pattern): transcripts and full fingerprints — including the
   supervisor's metrics — must be bit-identical in both modes. *)

module Alarm = Nv_core.Alarm
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http
module Site = Nv_httpd.Site
module Campaign = Nv_attacks.Campaign
module Faultgen = Nv_attacks.Faultgen
module Payloads = Nv_attacks.Payloads
module Cpu = Nv_vm.Cpu
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Metrics = Nv_util.Metrics

(* ------------------------------------------------------------------ *)
(* Harness (mirrors test_parallel.ml)                                  *)
(* ------------------------------------------------------------------ *)

let outcome_str = function
  | Monitor.Exited n -> Printf.sprintf "exited %d" n
  | Monitor.Alarm reason -> Format.asprintf "alarm %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> "blocked-on-accept"
  | Monitor.Out_of_fuel -> "out-of-fuel"

let serve_str = function
  | Nsystem.Served response -> "served:" ^ String.escaped response
  | Nsystem.Stopped outcome -> "stopped:" ^ outcome_str outcome

(* Per-variant CPU/memory state only — what snapshot/restore must roll
   back. Metrics are deliberately excluded here because they are
   monotonic across rollbacks. *)
let variant_state sys =
  let monitor = Nsystem.monitor sys in
  let b = Buffer.create 1024 in
  for i = 0 to Monitor.variant_count monitor - 1 do
    let { Image.cpu; memory; _ } = Monitor.loaded monitor i in
    Buffer.add_string b
      (Printf.sprintf "v%d pc=%d retired=%d regs=" i (Cpu.pc cpu)
         (Cpu.instructions_retired cpu));
    for r = 0 to 15 do
      Buffer.add_string b (Printf.sprintf "%d," (Cpu.reg cpu r))
    done;
    let base = Memory.base memory and size = Memory.size memory in
    Buffer.add_string b
      (Printf.sprintf " mem=%s\n"
         (Digest.to_hex (Digest.bytes (Memory.load_bytes memory ~addr:base ~len:size))))
  done;
  Buffer.contents b

let fingerprint sys = variant_state sys ^ Metrics.to_text (Nsystem.metrics sys)

let assert_equivalent ~what ~build ~drive =
  let seq_sys = build ~parallel:false in
  let par_sys = build ~parallel:true in
  Alcotest.(check bool) (what ^ ": parallel flag") true
    (Monitor.parallel (Nsystem.monitor par_sys)
    && not (Monitor.parallel (Nsystem.monitor seq_sys)));
  let seq_log = drive seq_sys in
  let par_log = drive par_sys in
  Alcotest.(check string) (what ^ ": transcript") seq_log par_log;
  Alcotest.(check string) (what ^ ": final state") (fingerprint seq_sys)
    (fingerprint par_sys)

let build_deploy ?recover ~parallel () =
  match Deploy.build ~parallel ?recover Deploy.Two_variant_uid with
  | Ok sys -> sys
  | Error e -> Alcotest.fail e

let supervisor_of sys = Option.get (Nsystem.supervisor sys)
let benign = Http.get "/"
let attack_request = Http.get (Payloads.null_overflow_url ())

let expect_200 what = function
  | Nsystem.Served raw -> (
    match Http.parse_response raw with
    | Ok { Http.status = 200; _ } -> raw
    | Ok { Http.status; _ } -> Alcotest.failf "%s: status %d" what status
    | Error e -> Alcotest.failf "%s: bad response: %s" what e)
  | Nsystem.Stopped outcome -> Alcotest.failf "%s: %s" what (outcome_str outcome)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore units                                            *)
(* ------------------------------------------------------------------ *)

let test_snapshot_replay () =
  (* A checkpoint taken at an accept park can be restored repeatedly,
     and each replay of the same request is byte-identical: CPU,
     memory, kernel (fds, VFS, log file) all roll back. *)
  let sys = build_deploy ~parallel:false () in
  let monitor = Nsystem.monitor sys in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | outcome -> Alcotest.failf "expected accept park, got %s" (outcome_str outcome));
  let snap = Monitor.snapshot monitor in
  let state0 = variant_state sys in
  let first = expect_200 "first serve" (Nsystem.serve sys benign) in
  Alcotest.(check bool) "serving changed variant state" true
    (variant_state sys <> state0);
  Alcotest.(check int) "no live connections at park" 0 (Monitor.restore monitor snap);
  Alcotest.(check string) "variant state rolled back" state0 (variant_state sys);
  let again = expect_200 "replayed serve" (Nsystem.serve sys benign) in
  Alcotest.(check string) "replay is byte-identical" first again;
  (* The same snapshot is restorable a second time. *)
  ignore (Monitor.restore monitor snap : int);
  let third = expect_200 "second replay" (Nsystem.serve sys benign) in
  Alcotest.(check string) "second replay identical" first third

let test_snapshot_preserves_metrics () =
  (* Counters are monotonic: restore must not rewind the registry. *)
  let sys = build_deploy ~parallel:false () in
  let monitor = Nsystem.monitor sys in
  ignore (Nsystem.run sys : Monitor.outcome);
  let snap = Monitor.snapshot monitor in
  ignore (expect_200 "serve" (Nsystem.serve sys benign));
  let retired_before = Metrics.find_counter (Nsystem.metrics sys) "vm.instructions" in
  ignore (Monitor.restore monitor snap : int);
  let retired_after = Metrics.find_counter (Nsystem.metrics sys) "vm.instructions" in
  Alcotest.(check bool) "instruction counter not rolled back" true
    (retired_before = retired_after && retired_before <> Some 0)

(* ------------------------------------------------------------------ *)
(* The supervisor                                                      *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let monitor_of sys = Nsystem.monitor sys in
  let sys = build_deploy ~parallel:false () in
  let check_invalid what config =
    Alcotest.(check bool) what true
      (try
         ignore (Supervisor.create ~config (monitor_of sys) : Supervisor.t);
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "zero interval"
    { Supervisor.default_config with checkpoint_interval = 0 };
  check_invalid "negative budget" { Supervisor.default_config with max_recoveries = -1 };
  check_invalid "zero window" { Supervisor.default_config with recovery_window = 0 }

(* The pinned integration scenario, driven in both stepping modes. *)
let test_attack_recovery_integration () =
  assert_equivalent ~what:"null-overflow recovery"
    ~build:(fun ~parallel ->
      build_deploy ~recover:Supervisor.default_config ~parallel ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let record tag s = Buffer.add_string b (Printf.sprintf "%s=%s\n" tag s) in
      let sup = supervisor_of sys in
      let baseline = expect_200 "pre-attack benign" (Nsystem.serve sys benign) in
      record "benign" (String.escaped baseline);
      Alcotest.(check int) "no recovery yet" 0 (Supervisor.recoveries sup);
      record "attack" (serve_str (Nsystem.serve sys attack_request));
      record "traversal" (serve_str (Nsystem.serve sys (Http.get Payloads.traversal_url)));
      (* The attack raised exactly one alarm; the supervisor absorbed
         it, dropping the connection that carried the overflow. *)
      Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
      Alcotest.(check bool) "attack connection dropped" true
        (Supervisor.dropped_connections sup >= 1);
      Alcotest.(check (option int)) "supervisor.recoveries metric" (Some 1)
        (Metrics.find_counter (Nsystem.metrics sys) "supervisor.recoveries");
      Alcotest.(check bool) "budget not exhausted" false (Supervisor.exhausted sup);
      Alcotest.(check bool) "alarm recorded" true (Supervisor.last_alarm sup <> None);
      (* Self-healing: the next benign request is served exactly as
         before the attack. *)
      let after = expect_200 "post-recovery benign" (Nsystem.serve sys benign) in
      Alcotest.(check string) "post-recovery response intact" baseline after;
      record "recoveries" (string_of_int (Supervisor.recoveries sup));
      record "dropped" (string_of_int (Supervisor.dropped_connections sup));
      record "checkpoints" (string_of_int (Supervisor.checkpoints sup));
      Buffer.contents b)

(* Checkpoints copy only the pages marked dirty since the last one. In
   parallel mode those marks are set on the variants' own domains and
   read by the coordinator's snapshot after the round's join; a lost
   mark would leave a stale page in the checkpoint, and the next
   rollback would restore it. Two attacks force two rollbacks, the
   second to a checkpoint taken after benign requests served in the
   chosen mode: after every step, and at the end byte for byte, both
   variant segments must equal the sequential run's. *)
let test_parallel_checkpoint_pages () =
  let drive sys =
    let b = Buffer.create 4096 in
    let sup = supervisor_of sys in
    let step tag request =
      let served = serve_str (Nsystem.serve sys request) in
      Buffer.add_string b
        (Printf.sprintf "%s=%s recoveries=%d\n%s" tag served (Supervisor.recoveries sup)
           (variant_state sys))
    in
    step "attack1" attack_request;
    for i = 1 to 3 do
      step (Printf.sprintf "benign%d" i) benign
    done;
    step "attack2" attack_request;
    step "benign4" benign;
    Alcotest.(check int) "two recoveries" 2 (Supervisor.recoveries sup);
    Buffer.contents b
  in
  let segments sys =
    let monitor = Nsystem.monitor sys in
    List.init (Monitor.variant_count monitor) (fun i ->
        let memory = (Monitor.loaded monitor i).Image.memory in
        Memory.load_bytes memory ~addr:(Memory.base memory) ~len:(Memory.size memory))
  in
  let build ~parallel = build_deploy ~recover:Supervisor.default_config ~parallel () in
  let seq_sys = build ~parallel:false and par_sys = build ~parallel:true in
  Alcotest.(check bool) "parallel mode" true (Monitor.parallel (Nsystem.monitor par_sys));
  Alcotest.(check string) "outcomes, recoveries and state per step" (drive seq_sys)
    (drive par_sys);
  List.iteri
    (fun i (seq, par) ->
      Alcotest.(check bool) (Printf.sprintf "variant %d segment byte-identical" i) true
        (Bytes.equal seq par))
    (List.combine (segments seq_sys) (segments par_sys))

let test_budget_exhaustion () =
  assert_equivalent ~what:"budget exhaustion"
    ~build:(fun ~parallel ->
      build_deploy
        ~recover:{ Supervisor.default_config with max_recoveries = 2 }
        ~parallel ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let record tag s = Buffer.add_string b (Printf.sprintf "%s=%s\n" tag s) in
      let sup = supervisor_of sys in
      ignore (expect_200 "benign" (Nsystem.serve sys benign));
      (* Two attacks are absorbed; the third exceeds the budget and the
         supervisor degrades to the paper's fail-stop. *)
      for i = 1 to 2 do
        record
          (Printf.sprintf "attack%d" i)
          (serve_str (Nsystem.serve sys attack_request));
        Alcotest.(check int) "recovery count" i (Supervisor.recoveries sup)
      done;
      (match Nsystem.serve sys attack_request with
      | Nsystem.Stopped (Monitor.Alarm reason) ->
        record "attack3" (Format.asprintf "failstop %a" Alarm.pp reason)
      | other -> Alcotest.failf "expected fail-stop, got %s" (serve_str other));
      Alcotest.(check bool) "exhausted" true (Supervisor.exhausted sup);
      Alcotest.(check int) "recoveries capped" 2 (Supervisor.recoveries sup);
      Alcotest.(check (option int)) "supervisor.failstop metric" (Some 1)
        (Metrics.find_counter (Nsystem.metrics sys) "supervisor.failstop");
      (* Once exhausted the supervisor stays fail-stop. *)
      record "after" (outcome_str (Nsystem.run sys));
      Alcotest.(check bool) "still exhausted" true (Supervisor.exhausted sup);
      Buffer.contents b)

let test_window_purges_budget () =
  (* A tiny recovery window: each attack's rollback stamp has aged out
     of the window by the time the next attack lands (a request is many
     rendezvous long), so a 1-recovery budget keeps absorbing. *)
  let sys =
    build_deploy
      ~recover:{ Supervisor.checkpoint_interval = 1; max_recoveries = 1; recovery_window = 2 }
      ~parallel:false ()
  in
  let sup = supervisor_of sys in
  let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
  for i = 1 to 3 do
    (match Nsystem.serve sys attack_request with
    | Nsystem.Served _ -> ()
    | Nsystem.Stopped outcome ->
      Alcotest.failf "attack %d not absorbed: %s" i (outcome_str outcome));
    Alcotest.(check int) "recoveries" i (Supervisor.recoveries sup)
  done;
  Alcotest.(check bool) "never exhausted" false (Supervisor.exhausted sup);
  Alcotest.(check string) "still serving" baseline
    (expect_200 "post" (Nsystem.serve sys benign))

let test_zero_budget_is_failstop () =
  (* max_recoveries = 0: the very first alarm surfaces, exactly like an
     unsupervised monitor. *)
  let sys =
    build_deploy
      ~recover:{ Supervisor.default_config with max_recoveries = 0 }
      ~parallel:false ()
  in
  let sup = supervisor_of sys in
  ignore (expect_200 "benign" (Nsystem.serve sys benign));
  (match Nsystem.serve sys attack_request with
  | Nsystem.Stopped (Monitor.Alarm _) -> ()
  | other -> Alcotest.failf "expected alarm, got %s" (serve_str other));
  Alcotest.(check int) "no recoveries" 0 (Supervisor.recoveries sup);
  Alcotest.(check bool) "exhausted immediately" true (Supervisor.exhausted sup)

let test_rollback_to_initial () =
  (* A huge checkpoint interval leaves only the initial (pre-run entry)
     checkpoint: recovery restarts the server from scratch — startup
     code reruns, the log file is re-emptied — and serving resumes. *)
  assert_equivalent ~what:"rollback to initial"
    ~build:(fun ~parallel ->
      build_deploy
        ~recover:{ Supervisor.default_config with checkpoint_interval = 1_000_000 }
        ~parallel ())
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let sup = supervisor_of sys in
      let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
      Buffer.add_string b (String.escaped baseline);
      Buffer.add_string b (serve_str (Nsystem.serve sys attack_request));
      Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
      Alcotest.(check int) "only the initial checkpoint" 1 (Supervisor.checkpoints sup);
      (* The restored world is the boot world, so the next response
         matches the very first request since boot. *)
      let after = expect_200 "post" (Nsystem.serve sys benign) in
      Alcotest.(check string) "reboot-identical response" baseline after;
      Buffer.add_string b (String.escaped after);
      Buffer.contents b)

(* Decode state is kept per 4 KiB page, only where code was fetched or
   compiled. On the warm supervised config4 server every variant holds it
   for at most the pages its code spans. A stack code injection executes
   bytes in the request buffer (which shares the last code page); its
   rollback rewrites that page and drops its decode state, and the
   server's return to the accept park decodes the code there again, so
   the count is back where it was. *)
let test_decoded_pages_footprint () =
  (match Sys.getenv_opt "NV_ENGINE" with
  | None ->
    Alcotest.(check string) "default engine" "block"
      (Memory.engine_to_string (Memory.default_engine ()))
  | Some _ -> ());
  let decoding = Memory.default_engine () <> Memory.Reference in
  let decoded sys =
    let monitor = Nsystem.monitor sys in
    List.init (Monitor.variant_count monitor) (fun i ->
        Memory.decoded_pages (Monitor.loaded monitor i).Image.memory)
  in
  let sys = build_deploy ~recover:Supervisor.default_config ~parallel:false () in
  Array.iter
    (fun path -> ignore (expect_200 path (Nsystem.serve sys (Http.get path))))
    Site.request_mix;
  let monitor = Nsystem.monitor sys in
  let warm = decoded sys in
  List.iteri
    (fun i pages ->
      let { Image.memory; layout; _ } = Monitor.loaded monitor i in
      let page addr = (addr - Memory.base memory) lsr Memory.page_shift in
      let code_pages =
        page (layout.Image.data_start - 1) - page layout.Image.code_start + 1
      in
      Alcotest.(check bool)
        (Printf.sprintf "variant %d: %d decoded pages, code spans %d" i pages code_pages)
        true
        (pages <= code_pages && (pages > 0) = decoding))
    warm;
  let tag = (Nsystem.variation sys).Nv_core.Variation.variants.(0).Nv_core.Variation.tag in
  ignore (Nsystem.serve sys (Payloads.code_injection_request sys ~tag));
  Alcotest.(check int) "the injection was rolled back" 1
    (Supervisor.recoveries (supervisor_of sys));
  Alcotest.(check (list int)) "decoded pages after the rollback" warm (decoded sys);
  ignore (expect_200 "post-recovery benign" (Nsystem.serve sys benign));
  Alcotest.(check (list int)) "decoded pages after the next request" warm (decoded sys)

let test_out_of_fuel_passthrough () =
  let sys = build_deploy ~recover:Supervisor.default_config ~parallel:false () in
  match Nsystem.run ~fuel:5 sys with
  | Monitor.Out_of_fuel -> ()
  | outcome -> Alcotest.failf "expected out-of-fuel, got %s" (outcome_str outcome)

(* ------------------------------------------------------------------ *)
(* Campaign verdicts under recovery                                    *)
(* ------------------------------------------------------------------ *)

let find_attack name =
  match Campaign.find name with
  | Some a -> a
  | None -> Alcotest.failf "attack %s not registered" name

let test_run_attack_recovered () =
  let attack = find_attack "uid-null-overflow" in
  match
    Campaign.run_attack ~parallel:false ~recover:Supervisor.default_config attack
      Deploy.Two_variant_uid
  with
  | Ok (Campaign.Recovered { recoveries; last_alarm }) ->
    Alcotest.(check bool) "at least one rollback" true (recoveries >= 1);
    Alcotest.(check bool) "alarm retained" true (last_alarm <> None);
    Alcotest.(check string) "label" "RECOVERED"
      (Campaign.verdict_label (Campaign.Recovered { recoveries; last_alarm }))
  | Ok verdict -> Alcotest.failf "expected RECOVERED, got %s" (Campaign.verdict_label verdict)
  | Error e -> Alcotest.fail e

let test_run_attack_benign_not_recovered () =
  (* The control row must stay "no effect" even with a supervisor: no
     alarm, no rollback, no RECOVERED upgrade. *)
  let attack = find_attack "baseline-request" in
  match
    Campaign.run_attack ~parallel:false ~recover:Supervisor.default_config attack
      Deploy.Two_variant_uid
  with
  | Ok Campaign.No_effect -> ()
  | Ok verdict -> Alcotest.failf "expected no effect, got %s" (Campaign.verdict_label verdict)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_faultgen_describe () =
  List.iter
    (fun (fault, needle) ->
      let s = Faultgen.describe fault in
      Alcotest.(check bool) ("describe: " ^ s) true
        (String.length s > 0 && contains s needle))
    [
      (Faultgen.Flip_register { variant = 1; reg = 4; bit = 7 }, "r4");
      (Faultgen.Flip_memory_bit { variant = 0; offset = 12; bit = 3 }, "byte 12");
      (Faultgen.Corrupt_syscall_arg { variant = 1; bit = 0 }, "syscall");
      (Faultgen.Drop_input_byte { variant = 0; index = 2 }, "byte 2");
    ]

let test_faultgen_inject_validation () =
  let sys = build_deploy ~parallel:false () in
  ignore (Nsystem.run sys : Monitor.outcome);
  let check_invalid what fault =
    Alcotest.(check bool) what true
      (try
         Faultgen.inject sys fault;
         false
       with Invalid_argument _ -> true)
  in
  check_invalid "variant out of range"
    (Faultgen.Flip_register { variant = 2; reg = 0; bit = 0 });
  check_invalid "register out of range"
    (Faultgen.Flip_register { variant = 0; reg = 16; bit = 0 });
  check_invalid "register bit out of range"
    (Faultgen.Flip_register { variant = 0; reg = 0; bit = 32 });
  check_invalid "memory bit out of range"
    (Faultgen.Flip_memory_bit { variant = 0; offset = 0; bit = 8 });
  check_invalid "negative offset"
    (Faultgen.Flip_memory_bit { variant = 0; offset = -1; bit = 0 });
  check_invalid "negative input index"
    (Faultgen.Drop_input_byte { variant = 0; index = -1 })

let test_syscall_arg_fault_detected () =
  (* Without a supervisor a corrupted pending-syscall argument is an
     Arg divergence at the next rendezvous: fail-stop. *)
  let sys = build_deploy ~parallel:false () in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | outcome -> Alcotest.failf "expected park, got %s" (outcome_str outcome));
  Faultgen.inject sys (Faultgen.Corrupt_syscall_arg { variant = 0; bit = 3 });
  match Nsystem.serve sys benign with
  | Nsystem.Stopped (Monitor.Alarm _) -> ()
  | other -> Alcotest.failf "expected alarm, got %s" (serve_str other)

let test_syscall_arg_fault_recovered () =
  (* With a supervisor the same fault is absorbed: the alarm fires at
     the accept rendezvous itself, before the pending connection is
     accepted, so the rollback restores the register, keeps the
     connection queued, and the request is then served normally. *)
  let sys = build_deploy ~recover:Supervisor.default_config ~parallel:false () in
  let sup = supervisor_of sys in
  let baseline = expect_200 "benign" (Nsystem.serve sys benign) in
  ignore (Nsystem.run sys : Monitor.outcome);
  Faultgen.inject sys (Faultgen.Corrupt_syscall_arg { variant = 0; bit = 3 });
  let response = expect_200 "faulted serve" (Nsystem.serve sys benign) in
  Alcotest.(check string) "served correctly after rollback" baseline response;
  Alcotest.(check int) "one recovery" 1 (Supervisor.recoveries sup);
  Alcotest.(check int) "queued connection survived rollback" 0
    (Supervisor.dropped_connections sup)

let report_str r =
  Format.asprintf "%a" Faultgen.pp_report r

let test_faultgen_campaign_deterministic () =
  (* The default PRNG campaign is reproducible, identical under both
     stepping modes, and its counts are consistent. *)
  let run parallel =
    match
      Faultgen.run_campaign ~seed:7 ~recover:Supervisor.default_config ~parallel
        Deploy.Two_variant_uid
    with
    | Ok report -> report
    | Error e -> Alcotest.fail e
  in
  let seq = run false in
  let par = run true in
  Alcotest.(check string) "seq == par" (report_str seq) (report_str par);
  Alcotest.(check string) "same seed reproduces" (report_str seq) (report_str (run false));
  Alcotest.(check bool) "faults were injected" true (seq.Faultgen.injected >= 1);
  Alcotest.(check int) "counts add up" seq.Faultgen.injected
    (seq.Faultgen.recovered + seq.Faultgen.failstop + seq.Faultgen.clean
   + seq.Faultgen.corrupted + seq.Faultgen.crashed);
  Alcotest.(check int) "nothing crashed" 0 seq.Faultgen.crashed

let test_faultgen_explicit_faults () =
  (* A hand-picked always-diverging fault list under recovery: every
     fault is detected and absorbed. *)
  match
    Faultgen.run_campaign
      ~faults:
        [
          Faultgen.Corrupt_syscall_arg { variant = 0; bit = 2 };
          Faultgen.Corrupt_syscall_arg { variant = 1; bit = 5 };
        ]
      ~recover:Supervisor.default_config ~parallel:false Deploy.Two_variant_uid
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check int) "injected" 2 report.Faultgen.injected;
    Alcotest.(check int) "recovered" 2 report.Faultgen.recovered

let test_faultgen_without_supervisor_failstops () =
  (* The same diverging fault with no supervisor: the campaign records
     a fail-stop and ends. *)
  match
    Faultgen.run_campaign
      ~faults:[ Faultgen.Corrupt_syscall_arg { variant = 0; bit = 2 } ]
      ~parallel:false Deploy.Two_variant_uid
  with
  | Error e -> Alcotest.fail e
  | Ok report ->
    Alcotest.(check int) "injected" 1 report.Faultgen.injected;
    Alcotest.(check int) "failstop" 1 report.Faultgen.failstop;
    Alcotest.(check int) "recovered" 0 report.Faultgen.recovered

let () =
  Alcotest.run "nv_supervisor"
    [
      ( "snapshot",
        [
          Alcotest.test_case "replay determinism" `Quick test_snapshot_replay;
          Alcotest.test_case "metrics monotonic" `Quick test_snapshot_preserves_metrics;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "attack recovery (pinned)" `Quick
            test_attack_recovery_integration;
          Alcotest.test_case "checkpoint pages across domains" `Quick
            test_parallel_checkpoint_pages;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "window purges budget" `Quick test_window_purges_budget;
          Alcotest.test_case "zero budget is fail-stop" `Quick test_zero_budget_is_failstop;
          Alcotest.test_case "rollback to initial" `Quick test_rollback_to_initial;
          Alcotest.test_case "out-of-fuel passthrough" `Quick test_out_of_fuel_passthrough;
          Alcotest.test_case "decoded pages footprint" `Quick test_decoded_pages_footprint;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "null-overflow recovered" `Quick test_run_attack_recovered;
          Alcotest.test_case "baseline stays no-effect" `Quick
            test_run_attack_benign_not_recovered;
        ] );
      ( "faultgen",
        [
          Alcotest.test_case "describe" `Quick test_faultgen_describe;
          Alcotest.test_case "inject validation" `Quick test_faultgen_inject_validation;
          Alcotest.test_case "syscall-arg fault detected" `Quick
            test_syscall_arg_fault_detected;
          Alcotest.test_case "syscall-arg fault recovered" `Quick
            test_syscall_arg_fault_recovered;
          Alcotest.test_case "campaign deterministic" `Quick
            test_faultgen_campaign_deterministic;
          Alcotest.test_case "explicit faults recovered" `Quick
            test_faultgen_explicit_faults;
          Alcotest.test_case "no supervisor fail-stops" `Quick
            test_faultgen_without_supervisor_failstops;
        ] );
    ]
