(* Differential suite for domain-parallel variant execution.

   The contract under test (lib/core/monitor.ml, "Concurrency
   discipline"): a monitor created with [~parallel:true] is
   bit-deterministic with respect to sequential stepping — identical
   outcomes, alarms, final registers/memory, and metric values — for
   every program, including ones that raise alarms mid-quantum and
   ones with pending signal deliveries. Mirrors the cached-vs-reference
   differential pattern of test_perf.ml: build the same system twice,
   drive both identically, compare complete fingerprints. *)

module Alarm = Nv_core.Alarm
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Variation = Nv_core.Variation
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http
module Payloads = Nv_attacks.Payloads
module Arrivals = Nv_sim.Arrivals
module Measure = Nv_workload.Measure
module Openload = Nv_workload.Openload
module Cpu = Nv_vm.Cpu
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Isa = Nv_vm.Isa
module Word = Nv_vm.Word
module Dompool = Nv_util.Dompool
module Metrics = Nv_util.Metrics
module Prng = Nv_util.Prng
module Spsc = Nv_util.Spsc

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let outcome_str = function
  | Monitor.Exited n -> Printf.sprintf "exited %d" n
  | Monitor.Alarm reason -> Format.asprintf "alarm %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> "blocked-on-accept"
  | Monitor.Out_of_fuel -> "out-of-fuel"

(* Everything observable about a system: per-variant pc, registers,
   retired count, a digest of the whole memory segment, and the full
   metric registry rendered to text (sorted, so registration order is
   irrelevant). *)
let fingerprint sys =
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
         (Digest.to_hex (Digest.bytes (Memory.load_bytes memory ~addr:base ~len:size))));
  done;
  Buffer.add_string b (Metrics.to_text (Nsystem.metrics sys));
  Buffer.contents b

(* Build the same system twice — sequential and parallel — drive both
   with [drive] (which returns a transcript of what it observed), and
   require transcript + fingerprint equality. *)
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

(* ------------------------------------------------------------------ *)
(* Random raw-instruction programs                                     *)
(* ------------------------------------------------------------------ *)

(* A generator in the spirit of test_perf's: arbitrary register
   arithmetic, memory traffic through relocated data pointers, wild
   branches, and frequent syscalls with numbers drawn from the whole
   ABI (including UID-returning and detection calls, so data-diverse
   variations legitimately alarm). Every program ends in exit(0); most
   stop earlier by trapping or alarming. All deterministic per seed. *)
let gen_image prng =
  let ncode = 64 in
  let isz = Isa.instr_size in
  let data_size = 256 and bss_size = 256 in
  let code = Array.make ncode { Image.instr = Isa.Nop; relocate = false } in
  (* data_offset = code bytes rounded up to 16 (Image.data_offset). *)
  let data_off = (((ncode * isz) + 15) / 16) * 16 in
  let plain instr = { Image.instr; relocate = false } in
  let reloc instr = { Image.instr; relocate = true } in
  let reg () = Prng.int prng 8 in
  let binops = [| Isa.Add; Isa.Sub; Isa.Mul; Isa.And; Isa.Or; Isa.Xor |] in
  let conds = [| Isa.Eq; Isa.Ne; Isa.Lt; Isa.Ge; Isa.Ltu; Isa.Geu |] in
  let syscalls = [| 0; 1; 2; 3; 4; 5; 6; 7; 9; 13; 15; 20; 21; 22; 24; 27 |] in
  let code_target () = Word.mask (Prng.int prng ncode * isz) in
  let data_target () = Word.mask (data_off + Prng.int prng (data_size + bss_size - 8)) in
  let i = ref 0 in
  let emit item = if !i < ncode - 2 then begin code.(!i) <- item; incr i end in
  while !i < ncode - 2 do
    match Prng.int prng 100 with
    | n when n < 22 ->
      emit (plain (Isa.Mov (reg (), Isa.Imm (Word.mask (Prng.int prng 4096)))))
    | n when n < 34 ->
      emit
        (plain
           (Isa.Binop (Prng.pick prng binops, reg (), reg (), Isa.Reg (reg ()))))
    | n when n < 40 ->
      emit (plain (Isa.Setcc (Prng.pick prng conds, reg (), reg (), Isa.Reg (reg ()))))
    | n when n < 50 ->
      (* Valid data pointer into r8/r9, then a load or store off it. *)
      let p = 8 + Prng.int prng 2 in
      emit (reloc (Isa.Mov (p, Isa.Imm (data_target ()))));
      if Prng.bool prng then emit (plain (Isa.Load (reg (), p, Prng.int prng 8)))
      else emit (plain (Isa.Store (p, Prng.int prng 8, reg ())))
    | n when n < 58 ->
      let c = Prng.pick prng conds in
      let a = reg () and b = reg () in
      emit (reloc (Isa.Br (c, a, b, code_target ())))
    | n when n < 62 -> emit (reloc (Isa.Jmp (code_target ())))
    | n when n < 68 ->
      if Prng.bool prng then emit (plain (Isa.Push (reg ())))
      else emit (plain (Isa.Pop (reg ())))
    | n when n < 80 ->
      (* Syscall group: number in r0, one plausible argument in r1. *)
      emit (plain (Isa.Mov (0, Isa.Imm (Word.mask (Prng.pick prng syscalls)))));
      emit (plain (Isa.Mov (1, Isa.Imm (Word.mask (Prng.int prng 8)))));
      emit (plain Isa.Syscall)
    | _ -> emit (plain Isa.Nop)
  done;
  (* Epilogue: exit(0). *)
  code.(ncode - 2) <- plain (Isa.Mov (0, Isa.Imm 0));
  code.(ncode - 1) <- plain Isa.Syscall;
  (* The epilogue leaves r1 as-is: variants whose r1 diverged exit with
     different statuses -> a deterministic Exit_mismatch alarm. *)
  {
    Image.code;
    data = Bytes.make data_size '\x2A';
    bss_size;
    entry_offset = 0;
    symbols = [];
  }

let random_variations =
  [|
    Variation.replicated;
    Variation.address_partition;
    Variation.uid_diversity;
    Variation.uid_diversity_n 3;
  |]

let drive_to_rest fuel sys =
  (* Run; on accept-block, feed one client request and continue (at
     most twice) so server-ish random programs get exercised past
     their accept. *)
  let b = Buffer.create 64 in
  let rec go tries =
    match Nsystem.run ~fuel sys with
    | Monitor.Blocked_on_accept when tries > 0 ->
      Buffer.add_string b "blocked;";
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn "ping";
      Nv_os.Socket.client_close conn;
      go (tries - 1)
    | outcome -> Buffer.add_string b (outcome_str outcome)
  in
  go 2;
  Buffer.contents b

let test_random_programs () =
  for seed = 1 to 40 do
    let image = gen_image (Prng.create ~seed) in
    let variation = random_variations.(seed mod Array.length random_variations) in
    assert_equivalent
      ~what:(Printf.sprintf "random seed %d" seed)
      ~build:(fun ~parallel ->
        Nsystem.of_one_image ~parallel ~segment_size:(1 lsl 17) ~variation image)
      ~drive:(drive_to_rest 30_000)
  done

let test_random_programs_fuel_slices () =
  (* Same comparison but stepping each system in small fuel slices:
     quantum boundaries land mid-program, so the Out_of_fuel path and
     resumability must also be mode-independent. *)
  for seed = 41 to 52 do
    let image = gen_image (Prng.create ~seed) in
    let variation = random_variations.(seed mod Array.length random_variations) in
    assert_equivalent
      ~what:(Printf.sprintf "fuel-sliced seed %d" seed)
      ~build:(fun ~parallel ->
        Nsystem.of_one_image ~parallel ~segment_size:(1 lsl 17) ~variation image)
      ~drive:(fun sys ->
        let b = Buffer.create 64 in
        for _ = 1 to 6 do
          Buffer.add_string b (outcome_str (Nsystem.run ~fuel:701 sys));
          Buffer.add_char b ';'
        done;
        Buffer.contents b)
  done

(* ------------------------------------------------------------------ *)
(* Mini-C programs: signals, alarms, 4 variants                        *)
(* ------------------------------------------------------------------ *)

let compile source = Nv_minic.Codegen.compile_source (Nv_minic.Runtime.with_runtime source)

let build_minic ?(variation = Variation.uid_diversity) source ~parallel =
  Nsystem.of_one_image ~parallel ~segment_size:(1 lsl 17) ~variation (compile source)

let signal_program =
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 9; }
      int spin = 0;
      while (spin < 300) { spin++; }
      return sigcount;
    }|}

let divergent_signal_program =
  (* getpwnam parses per-variant unshared files of different lengths,
     so Immediate delivery can land at different logical points and
     raise the paper's false detection — which must be raised (or not)
     identically in both stepping modes. *)
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t www = getpwnam_uid("www");
      int snapshot = sigcount;
      if (cond_chk(snapshot == 0)) {
        if (seteuid(www) != 0) { return 0; }
        return 0;
      }
      return 1;
    }|}

let bad_handler_program =
  {|int bad_handler(void) {
      sys_close(0);
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      int spin = 0;
      while (spin < 500) { spin++; }
      return 0;
    }|}

let drive_signal ~handler ~mode sys =
  match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> (
    match Monitor.post_signal (Nsystem.monitor sys) ~handler ~mode with
    | Error e -> "post failed: " ^ e
    | Ok () ->
      let conn = Nsystem.connect sys in
      Nv_os.Socket.client_send conn "x";
      Nv_os.Socket.client_close conn;
      Printf.sprintf "%s pending=%b"
        (outcome_str (Nsystem.run sys))
        (Monitor.signal_pending (Nsystem.monitor sys)))
  | outcome -> "no accept: " ^ outcome_str outcome

let test_signal_at_rendezvous () =
  assert_equivalent ~what:"signal at-rendezvous"
    ~build:(build_minic signal_program)
    ~drive:(drive_signal ~handler:"on_signal" ~mode:Monitor.At_rendezvous)

let test_signal_immediate_sweep () =
  (* Sweep the delivery point across the run: deliveries land inside
     different quanta, including mid-quantum in the aligned program
     (no alarm) and at drift points in the divergent one (alarm). *)
  List.iter
    (fun after ->
      assert_equivalent
        ~what:(Printf.sprintf "signal immediate after=%d" after)
        ~build:(build_minic signal_program)
        ~drive:
          (drive_signal ~handler:"on_signal"
             ~mode:(Monitor.Immediate { after_instructions = after })))
    [ 50; 137; 200; 500; 1000; 2500 ]

let test_signal_divergent_sweep () =
  List.iter
    (fun after ->
      assert_equivalent
        ~what:(Printf.sprintf "divergent signal after=%d" after)
        ~build:(build_minic divergent_signal_program)
        ~drive:
          (drive_signal ~handler:"on_signal"
             ~mode:(Monitor.Immediate { after_instructions = after })))
    [ 100; 600; 1100; 1600; 2100; 2600; 3100; 3600 ]

let test_signal_delivery_failure () =
  (* The handler traps during delivery: the Alarm_exn is raised inside
     a variant's quantum, exercising the captured-exception join path
     (lowest index first) in parallel mode. *)
  List.iter
    (fun mode ->
      assert_equivalent ~what:"failing handler"
        ~build:(build_minic bad_handler_program)
        ~drive:(drive_signal ~handler:"bad_handler" ~mode))
    [ Monitor.At_rendezvous; Monitor.Immediate { after_instructions = 120 } ]

let uid_dance_4v =
  {|int main(void) {
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 9; }
      uid_t now = geteuid();
      if (cc_eq(me, now) == 0) { return 8; }
      uid_t www = getpwnam_uid("www");
      if (seteuid(www) != 0) { return 7; }
      return 0;
    }|}

let test_four_variants () =
  assert_equivalent ~what:"4-variant uid dance"
    ~build:(build_minic ~variation:(Variation.uid_diversity_n 4) uid_dance_4v)
    ~drive:(fun sys -> outcome_str (Nsystem.run sys))

(* ------------------------------------------------------------------ *)
(* Relaxed monitoring                                                  *)
(* ------------------------------------------------------------------ *)

(* A long stretch of relaxed calls (getuid/geteuid/cc_eq never park the
   variant) bracketed by sensitive rendezvous (seteuid, exit): the
   deferred-record queues fill up and are cross-checked at the flush
   boundary. *)
let relaxed_stretch_program =
  {|int main(void) {
      uid_t me = getuid();
      int i = 0;
      while (i < 40) {
        uid_t e = geteuid();
        if (cc_eq(me, e) == 0) { return 8; }
        i++;
      }
      if (seteuid(me) != 0) { return 9; }
      return 0;
    }|}

let test_relaxed_metrics () =
  (* The relaxed engine must surface its own observability: every
     relaxed position settled from deferred records counts into
     [monitor.relaxed_checks], and each flush boundary records its
     batch into [monitor.deferred_batch_size] — in both modes, with
     identical values (the fingerprint comparison covers equality; here
     we pin the values are actually nonzero). *)
  assert_equivalent ~what:"relaxed metrics"
    ~build:(build_minic relaxed_stretch_program)
    ~drive:(fun sys ->
      let outcome = outcome_str (Nsystem.run sys) in
      let stats = Monitor.stats (Nsystem.monitor sys) in
      (* getuid + 40*(geteuid, cc_eq) = 81 relaxed positions. *)
      Alcotest.(check int) "relaxed_checks counts every relaxed call" 81
        stats.Monitor.st_relaxed_checks;
      Alcotest.(check (option int)) "monitor.relaxed_checks registered" (Some 81)
        (Metrics.find_counter (Nsystem.metrics sys) "monitor.relaxed_checks");
      Alcotest.(check bool) "deferred_batch_size histogram present" true
        (match
           Metrics.Json.member "histograms"
             (Metrics.to_json_value (Nsystem.metrics sys))
         with
        | Some h -> Metrics.Json.member "monitor.deferred_batch_size" h <> None
        | None -> false);
      Printf.sprintf "%s relaxed=%d" outcome stats.Monitor.st_relaxed_checks)

let test_relaxed_divergence_alarms () =
  (* A relaxed call whose records disagree must still alarm with the
     same class and payload as an eager rendezvous — the deferred
     cross-check settles it later, never weaker. Comparing the raw
     (reexpressed, variant-diverse) UID against a constant makes the
     cond_chk booleans disagree: variant 0 is the identity
     reexpression (me = 0, root) while variant 1 sees me XOR'd. *)
  let source =
    {|int main(void) {
        uid_t me = getuid();
        if (cond_chk(me == 0)) { return 1; }
        return 0;
      }|}
  in
  assert_equivalent ~what:"relaxed divergence"
    ~build:(build_minic source)
    ~drive:(fun sys ->
      match Nsystem.run sys with
      | Monitor.Alarm (Alarm.Cond_mismatch { values }) ->
        Printf.sprintf "cond-mismatch %s"
          (String.concat ","
             (Array.to_list (Array.map string_of_int values)))
      | outcome -> Alcotest.failf "expected Cond_mismatch, got %s" (outcome_str outcome))

let test_rollback_resets_relaxed_state () =
  (* Fuel exhaustion mid-stretch leaves deferred records queued (and,
     in parallel mode, variants parked in their rings); restore must
     drain all of it so the replay after rollback is bit-identical to a
     fresh run in either mode. *)
  assert_equivalent ~what:"rollback mid-relaxed-stretch"
    ~build:(build_minic relaxed_stretch_program)
    ~drive:(fun sys ->
      let monitor = Nsystem.monitor sys in
      let snap = Monitor.snapshot monitor in
      let b = Buffer.create 128 in
      (* Step in slices small enough to stop inside the relaxed loop. *)
      for _ = 1 to 3 do
        Buffer.add_string b (outcome_str (Nsystem.run ~fuel:97 sys));
        Buffer.add_char b ';'
      done;
      Buffer.add_string b
        (Printf.sprintf "dropped=%d;" (Monitor.restore monitor snap));
      Buffer.add_string b (outcome_str (Nsystem.run sys));
      Buffer.contents b)

(* A relaxed stretch stopped Out_of_fuel inside a syscall-free spin,
   then resumed with an [At_rendezvous] signal pending: relaxation is
   off for the resumed round, so every variant parks live at the
   cond_chk and the coordinator executes and checks it there as a
   relaxed position. [me == 0] holds only in variant 0 (the identity
   reexpression) and makes the divergent case's booleans disagree. *)
let signal_at_relaxed_program cond =
  Printf.sprintf
    {|int sigcount = 0;
      int on_signal(void) {
        sigcount = sigcount + 1;
        return 0;
      }
      int main(void) {
        uid_t me = getuid();
        int spin = 0;
        while (spin < 300) { spin++; }
        if (cond_chk(%s)) { return sigcount; }
        return 9;
      }|}
    cond

let test_signal_at_relaxed_call () =
  List.iter
    (fun (what, cond, expected, relaxed_checks) ->
      assert_equivalent ~what
        ~build:(build_minic (signal_at_relaxed_program cond))
        ~drive:(fun sys ->
          let monitor = Nsystem.monitor sys in
          let stopped = outcome_str (Nsystem.run ~fuel:1000 sys) in
          (* Only getuid has been checked: the stop is inside the spin. *)
          Alcotest.(check (pair string int)) (what ^ ": stopped in the spin")
            ("out-of-fuel", 1) (stopped, (Monitor.stats monitor).Monitor.st_relaxed_checks);
          (match
             Monitor.post_signal monitor ~handler:"on_signal" ~mode:Monitor.At_rendezvous
           with
          | Ok () -> ()
          | Error e -> Alcotest.fail e);
          let outcome = outcome_str (Nsystem.run sys) in
          let stats = Monitor.stats monitor in
          Alcotest.(check string) (what ^ ": outcome") expected outcome;
          Alcotest.(check int) (what ^ ": signal delivered") 2
            stats.Monitor.st_signals_delivered;
          Alcotest.(check int) (what ^ ": relaxed checks") relaxed_checks
            stats.Monitor.st_relaxed_checks;
          outcome))
    [
      (* getuid, then the cond_chk settled at the signal rendezvous; a
         position that alarms is not counted. *)
      ("signal at a relaxed call, benign", "spin == 300", "exited 1", 2);
      ( "signal at a relaxed call, divergent",
        "me == 0",
        "alarm cond_chk: variants took different paths: [1; 0]",
        1 );
    ]

(* ------------------------------------------------------------------ *)
(* Doorbell handshake under a full event ring                          *)
(* ------------------------------------------------------------------ *)

(* 3000 back-to-back cond_chk calls (syscall 21), then exit(0). Each
   variant streams its records far faster than the coordinator drains
   them, so its 512-slot event ring fills and the variant parks on its
   doorbell again and again: a wake-up lost anywhere in that handshake
   hangs the run. *)
let full_ring_calls = 3000

let full_ring_image =
  Nv_vm.Asm.assemble
    (Printf.sprintf
       {|
      .text
      mov r7, #0
      mov r8, #%d
    loop:
      mov r0, #21
      mov r1, #1
      syscall
      add r7, r7, #1
      brlt r7, r8, loop
      mov r0, #0
      mov r1, #0
      syscall
    |}
       full_ring_calls)

(* The process's stderr as it was before Alcotest redirects each test's
   output to a log file, so a watchdog's message reaches the console. *)
let console = Unix.dup Unix.stderr

(* Fail the whole test binary, rather than let the suite hang, when
   [f] has not returned after [seconds]. *)
let with_watchdog ~seconds ~what f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
          Unix.sleepf 0.05
        done;
        if not (Atomic.get finished) then begin
          let message =
            Printf.sprintf "%s: no progress after %.0f s (lost wake-up?)\n" what seconds
          in
          ignore (Unix.write_substring console message 0 (String.length message));
          exit 2
        end)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

let test_full_ring_stress () =
  let run ~parallel =
    let sys =
      Nsystem.of_one_image ~parallel ~variation:Variation.uid_diversity full_ring_image
    in
    let outcome = outcome_str (Nsystem.run sys) in
    let stats = Monitor.stats (Nsystem.monitor sys) in
    (outcome, stats.Monitor.st_relaxed_checks, stats.Monitor.st_rendezvous)
  in
  let expected = run ~parallel:false in
  Alcotest.(check (triple string int int)) "sequential run"
    ("exited 0", full_ring_calls, full_ring_calls + 1)
    expected;
  with_watchdog ~seconds:60. ~what:"full-ring stress" (fun () ->
      for k = 1 to 100 do
        Alcotest.(check (triple string int int))
          (Printf.sprintf "parallel run %d" k)
          expected (run ~parallel:true)
      done)

(* ------------------------------------------------------------------ *)
(* The case-study server                                               *)
(* ------------------------------------------------------------------ *)

let test_httpd_serving () =
  assert_equivalent ~what:"httpd two-variant-uid"
    ~build:(fun ~parallel ->
      match Deploy.build ~parallel Deploy.Two_variant_uid with
      | Ok sys -> sys
      | Error e -> Alcotest.fail e)
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      List.iter
        (fun url ->
          match Nsystem.serve sys (Http.get url) with
          | Nsystem.Served response -> Buffer.add_string b response
          | Nsystem.Stopped outcome -> Buffer.add_string b (outcome_str outcome))
        [ "/index.html"; "/"; "/missing.html" ];
      Buffer.contents b)

let test_supervisor_recovery_under_parallel () =
  (* The recovery supervisor rolls the monitor back mid-service; in
     parallel mode this lands while the pinned engine is live, so the
     restore path must also drain/reset the transport. The full
     recovery matrix lives in test_supervisor.ml; this is the engine's
     own smoke: attack absorbed, self-healed, identically in both
     modes. *)
  assert_equivalent ~what:"supervisor recovery"
    ~build:(fun ~parallel ->
      match
        Deploy.build ~parallel ~recover:Supervisor.default_config
          Deploy.Two_variant_uid
      with
      | Ok sys -> sys
      | Error e -> Alcotest.fail e)
    ~drive:(fun sys ->
      let b = Buffer.create 4096 in
      let serve req =
        match Nsystem.serve sys req with
        | Nsystem.Served response -> "served:" ^ String.escaped response
        | Nsystem.Stopped outcome -> "stopped:" ^ outcome_str outcome
      in
      let sup = Option.get (Nsystem.supervisor sys) in
      let baseline = serve (Http.get "/") in
      Buffer.add_string b baseline;
      Buffer.add_string b (serve (Http.get (Payloads.null_overflow_url ())));
      Alcotest.(check int) "attack absorbed" 1 (Supervisor.recoveries sup);
      let healed = serve (Http.get "/") in
      Alcotest.(check string) "self-healed to baseline" baseline healed;
      Buffer.add_string b healed;
      Buffer.add_string b
        (Printf.sprintf "recoveries=%d" (Supervisor.recoveries sup));
      Buffer.contents b)

let test_openload_seq_par_identical () =
  (* The fleet tier profiles a replica (Measure drives the deployed
     system through the monitor) and extrapolates an open-loop SLO
     report: the report must be bit-deterministic whether that replica
     stepped its variants sequentially or on the pinned engine. *)
  let spec =
    {
      Openload.replicas = 2;
      arrival = Arrivals.Poisson { rate = 150.0 };
      duration_s = 1.0;
      users = 2_000;
      attacks_per_10k = 5;
    }
  in
  let run ~parallel =
    match Deploy.build ~parallel Deploy.Two_variant_uid with
    | Error e -> Alcotest.failf "deploy failed: %s" e
    | Ok sys -> (
      match Measure.profile ~requests:4 ~seed:11 sys with
      | Error e -> Alcotest.failf "profile failed: %s" e
      | Ok samples ->
        let samples = Array.sub samples 1 (Array.length samples - 1) in
        Openload.run ~seed:11 ~variants:2 ~samples spec)
  in
  let seq = run ~parallel:false in
  let par = run ~parallel:true in
  Alcotest.(check bool) "identical SLO reports" true (seq = par)

(* ------------------------------------------------------------------ *)
(* The transport: SPSC rings                                           *)
(* ------------------------------------------------------------------ *)

let test_spsc_basics () =
  Alcotest.(check bool) "zero capacity rejected" true
    (try
       ignore (Spsc.create ~capacity:0 : int Spsc.t);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "capacity of one" 1 (Spsc.capacity (Spsc.create ~capacity:1));
  let r = Spsc.create ~capacity:5 in
  Alcotest.(check int) "capacity rounded to a power of two" 8 (Spsc.capacity r);
  Alcotest.(check (option int)) "empty pop" None (Spsc.try_pop r);
  Alcotest.(check int) "empty length" 0 (Spsc.length r);
  for i = 0 to 7 do
    Alcotest.(check bool) "push while free" true (Spsc.try_push r i)
  done;
  Alcotest.(check bool) "push on full rejected" false (Spsc.try_push r 99);
  Alcotest.(check int) "full length" 8 (Spsc.length r);
  for i = 0 to 7 do
    Alcotest.(check (option int)) "FIFO order" (Some i) (Spsc.try_pop r)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.try_pop r);
  (* Interleaved traffic far past the capacity: positions are monotone
     ints masked into the slot array, so wrap-around must be seamless. *)
  for i = 0 to 999 do
    Alcotest.(check bool) "wrap push" true (Spsc.try_push r i);
    if i mod 3 = 0 then
      Alcotest.(check bool) "wrap second push" true (Spsc.try_push r (-i));
    Alcotest.(check bool) "wrap pop nonempty" true (Spsc.try_pop r <> None);
    if i mod 3 = 0 then
      Alcotest.(check bool) "wrap second pop" true (Spsc.try_pop r <> None)
  done;
  Alcotest.(check (option int)) "balanced" None (Spsc.try_pop r)

let test_spsc_cross_domain () =
  (* One producer domain, the test domain consuming: every element
     arrives exactly once, in order, through a ring much smaller than
     the stream. *)
  let ring = Spsc.create ~capacity:8 in
  let n = 50_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Spsc.try_push ring i) do
            Domain.cpu_relax ()
          done
        done)
  in
  let next = ref 0 in
  while !next < n do
    match Spsc.try_pop ring with
    | Some v ->
      if v <> !next then
        Alcotest.failf "out of order: got %d, expected %d" v !next;
      incr next
    | None -> Domain.cpu_relax ()
  done;
  Domain.join producer;
  Alcotest.(check (option int)) "stream fully consumed" None (Spsc.try_pop ring)

(* ------------------------------------------------------------------ *)
(* Dompool.map_array                                                   *)
(* ------------------------------------------------------------------ *)

let test_dompool_basics () =
  let doubled = Dompool.map_array (fun x -> 2 * x) (Array.init 100 Fun.id) in
  Alcotest.(check int) "map_array len" 100 (Array.length doubled);
  Array.iteri (fun i v -> Alcotest.(check int) "map_array value" (2 * i) v) doubled;
  Alcotest.(check (array int)) "empty" [||] (Dompool.map_array (fun x -> x) [||])

let test_dompool_exception_order () =
  (* Every task from index 3 on fails; the lowest index must win,
     deterministically. *)
  for _ = 1 to 20 do
    match
      Dompool.map_array
        (fun i -> if i >= 3 then failwith (string_of_int i) else i)
        (Array.init 8 Fun.id)
    with
    | _ -> Alcotest.fail "expected a failure"
    | exception Failure s -> Alcotest.(check string) "lowest index raised" "3" s
  done

let test_dompool_nested () =
  (* A task that itself maps: the inner call spawns and joins helpers
     of its own. *)
  let result =
    Dompool.map_array
      (fun x -> Array.fold_left ( + ) 0 (Dompool.map_array (fun y -> x * y) [| 1; 2; 3 |]))
      [| 10; 20; 30 |]
  in
  Alcotest.(check (array int)) "nested sums" [| 60; 120; 180 |] result

let test_env_default () =
  (* Not cached: the monitor's default follows the current env. *)
  let before = Dompool.env_default () in
  Alcotest.(check bool) "matches env" before
    (match Sys.getenv_opt "NV_PARALLEL" with Some "1" -> true | _ -> false)

let () =
  Alcotest.run "nv_parallel"
    [
      ( "spsc",
        [
          Alcotest.test_case "basics" `Quick test_spsc_basics;
          Alcotest.test_case "cross-domain stream" `Quick test_spsc_cross_domain;
        ] );
      ( "dompool",
        [
          Alcotest.test_case "basics" `Quick test_dompool_basics;
          Alcotest.test_case "exception order" `Quick test_dompool_exception_order;
          Alcotest.test_case "nested" `Quick test_dompool_nested;
          Alcotest.test_case "env default" `Quick test_env_default;
        ] );
      ( "differential",
        [
          Alcotest.test_case "random programs" `Quick test_random_programs;
          Alcotest.test_case "random programs, fuel-sliced" `Quick
            test_random_programs_fuel_slices;
          Alcotest.test_case "signal at-rendezvous" `Quick test_signal_at_rendezvous;
          Alcotest.test_case "signal immediate sweep" `Quick test_signal_immediate_sweep;
          Alcotest.test_case "divergent signal sweep" `Quick test_signal_divergent_sweep;
          Alcotest.test_case "signal delivery failure" `Quick test_signal_delivery_failure;
          Alcotest.test_case "four variants" `Quick test_four_variants;
          Alcotest.test_case "relaxed metrics" `Quick test_relaxed_metrics;
          Alcotest.test_case "relaxed divergence" `Quick test_relaxed_divergence_alarms;
          Alcotest.test_case "rollback mid-relaxed-stretch" `Quick
            test_rollback_resets_relaxed_state;
          Alcotest.test_case "signal at a relaxed call" `Quick test_signal_at_relaxed_call;
          Alcotest.test_case "full event ring" `Quick test_full_ring_stress;
          Alcotest.test_case "httpd serving" `Quick test_httpd_serving;
          Alcotest.test_case "supervisor recovery" `Quick
            test_supervisor_recovery_under_parallel;
          Alcotest.test_case "openload seq==par" `Quick test_openload_seq_par_identical;
        ] );
    ]
