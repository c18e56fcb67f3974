(* Tests for the flight recorder (Nv_util.Trace): ring semantics, the
   zero-cost disabled path, seq-vs-par stream identity, and the alarm
   forensics bundle attached to campaign verdicts. *)

module Trace = Nv_util.Trace
module Json = Nv_util.Metrics.Json
module Metrics = Nv_util.Metrics
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Variation = Nv_core.Variation
module Syscall = Nv_os.Syscall
module Campaign = Nv_attacks.Campaign
module Deploy = Nv_httpd.Deploy

(* ------------------------------------------------------------------ *)
(* Ring semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_overflow_drops_oldest () =
  let t = Trace.create ~capacity:4 () in
  Trace.set_enabled t true;
  let r = Trace.ring t ~name:"x" ~pid:0 ~tid:0 in
  for i = 1 to 10 do
    Trace.record r ~ts:i (Trace.Kernel_call { name = "k"; seq = i })
  done;
  Alcotest.(check (list int))
    "retains the most recent tail" [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Trace.ts) (Trace.events r));
  Alcotest.(check int) "dropped counts evictions" 6 (Trace.dropped r);
  Alcotest.(check int) "recorded counts everything" 10 (Trace.recorded r);
  Trace.clear t;
  Alcotest.(check (list int)) "clear empties" [] (List.map (fun e -> e.Trace.ts) (Trace.events r));
  Alcotest.(check int) "clear resets drops" 0 (Trace.dropped r)

let test_disabled_records_nothing () =
  let t = Trace.create () in
  let r = Trace.ring t ~name:"x" ~pid:0 ~tid:0 in
  Trace.record r ~ts:1 Trace.Quantum_begin;
  Trace.note r ~ts:2 (fun () -> "hello");
  Alcotest.(check int) "nothing recorded" 0 (Trace.recorded r);
  Trace.set_enabled t true;
  Trace.record r ~ts:3 Trace.Quantum_begin;
  Alcotest.(check int) "recording after enable" 1 (Trace.recorded r)

let test_disabled_allocates_nothing () =
  (* The contract every instrumented hot path relies on: a guarded
     call site against a disabled session costs one atomic load and
     allocates nothing (the event constructor sits inside the guard). *)
  let t = Trace.create () in
  let r = Trace.ring t ~name:"x" ~pid:0 ~tid:0 in
  let note_text () = Printf.sprintf "[seteuid] canonical %d" 33 in
  let site i =
    if Trace.enabled t then
      Trace.record r ~ts:i (Trace.Syscall_enter { number = 9; args = [| i; i + 1 |] });
    (* An unguarded note: its text is formatted only when enabled. *)
    Trace.note r ~ts:i note_text
  in
  site 0;
  let w0 = Gc.minor_words () in
  for i = 1 to 50_000 do
    site i
  done;
  let w1 = Gc.minor_words () in
  (* Allow a few words of slop for the Gc.minor_words boxes themselves;
     anything per-iteration would be tens of thousands of words. *)
  Alcotest.(check bool)
    (Printf.sprintf "no per-record allocation (%.0f words)" (w1 -. w0))
    true
    (w1 -. w0 < 100.0)

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_shape () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  let v = Trace.ring t ~name:"variant 0" ~pid:0 ~tid:0 in
  let c = Trace.ring t ~name:"coordinator" ~pid:0 ~tid:1 in
  Trace.record v ~ts:0 Trace.Quantum_begin;
  Trace.record v ~ts:5 (Trace.Syscall_enter { number = 9; args = [| 33 |] });
  Trace.record v ~ts:5 (Trace.Syscall_exit { number = 9; result = 0 });
  Trace.record v ~ts:9 (Trace.Quantum_end { retired = 9 });
  Trace.record c ~ts:9 (Trace.Rendezvous { number = 9; relaxed = false });
  let json = Trace.to_chrome ~syscall_name:Syscall.name ~extra:[ ("marker", Json.Bool true) ] t in
  (* Round-trip through the parser: the export must be valid JSON. *)
  (match Json.of_string (Json.to_string json) with
  | Error e -> Alcotest.failf "chrome export does not parse: %s" e
  | Ok _ -> ());
  Alcotest.(check (option bool)) "extra key kept" (Some true)
    (match Json.member "marker" json with Some (Json.Bool b) -> Some b | _ -> None);
  match Json.member "traceEvents" json with
  | Some (Json.List evs) ->
    let phases =
      List.filter_map
        (fun e ->
          match (Json.member "ph" e, Json.member "name" e) with
          | Some (Json.Str ph), Some (Json.Str name) -> Some (ph, name)
          | _ -> None)
        evs
    in
    Alcotest.(check bool) "has metadata rows" true
      (List.mem ("M", "thread_name") phases);
    Alcotest.(check bool) "syscall duration pair" true
      (List.mem ("B", "seteuid") phases && List.mem ("E", "seteuid") phases);
    Alcotest.(check bool) "rendezvous instant" true
      (List.mem ("i", "rendezvous:seteuid") phases)
  | _ -> Alcotest.fail "no traceEvents list"

(* ------------------------------------------------------------------ *)
(* Seq == par stream identity                                          *)
(* ------------------------------------------------------------------ *)

(* A seed-parameterized guest exercising every stream source: relaxed
   getuid-family reads, detection calls from transformed comparisons,
   full rendezvous (seteuid, exit), and deferred flush boundaries. *)
let program seed =
  Printf.sprintf
    {|uid_t worker = %d;
      int main(void) {
        int i = 0;
        int acc = 0;
        while (i < %d) {
          uid_t u = geteuid();
          if (u == 0) { acc = acc + 2; } else { acc = acc + 1; }
          i = i + 1;
        }
        if (seteuid(worker) != 0) { return 1; }
        if (worker == %d) { return 2; }
        return %d;
      }|}
    ((seed * 7 mod 90) + 1)
    ((seed mod 4) + 2)
    (seed mod 2)
    (seed mod 3)

let transform seed =
  match
    Nv_transform.Uid_transform.transform_source ~variation:Variation.uid_diversity
      (Nv_minic.Runtime.with_runtime (program seed))
  with
  | Ok (images, _report) -> images
  | Error e -> Alcotest.failf "transform failed for seed %d: %s" seed e

(* Every ring of a session, fingerprinted event by event (timestamps
   included) so two sessions can be compared for exact identity. *)
let stream_fingerprint session =
  List.map
    (fun ring ->
      let events =
        List.map
          (fun e ->
            Printf.sprintf "%d:%s" e.Trace.ts
              (Format.asprintf "%a" (Trace.pp_event ~syscall_name:Syscall.name) e))
          (Trace.events ring)
      in
      (Trace.ring_name ring, Trace.dropped ring, events))
    (Trace.rings session)

let run_traced ~parallel images =
  let sys =
    Nsystem.create ~parallel ~variation:Variation.uid_diversity images
  in
  let monitor = Nsystem.monitor sys in
  Trace.set_enabled (Monitor.trace_session monitor) true;
  let outcome =
    match Nsystem.run ~fuel:200_000 sys with
    | Monitor.Exited n -> Printf.sprintf "exited %d" n
    | Monitor.Alarm reason -> Format.asprintf "alarm %a" Nv_core.Alarm.pp reason
    | Monitor.Blocked_on_accept -> "blocked"
    | Monitor.Out_of_fuel -> "out-of-fuel"
  in
  (outcome, stream_fingerprint (Monitor.trace_session monitor))

let test_seq_par_identical_streams () =
  for seed = 1 to 10 do
    let images = transform seed in
    let seq_outcome, seq_streams = run_traced ~parallel:false images in
    let par_outcome, par_streams = run_traced ~parallel:true (transform seed) in
    Alcotest.(check string)
      (Printf.sprintf "seed %d outcome" seed)
      seq_outcome par_outcome;
    List.iter2
      (fun (name, sdrop, sevs) (name', pdrop, pevs) ->
        Alcotest.(check string) (Printf.sprintf "seed %d ring name" seed) name name';
        Alcotest.(check int)
          (Printf.sprintf "seed %d ring %s dropped" seed name)
          sdrop pdrop;
        Alcotest.(check (list string))
          (Printf.sprintf "seed %d ring %s events" seed name)
          sevs pevs)
      seq_streams par_streams
  done

(* ------------------------------------------------------------------ *)
(* Forensics bundle                                                    *)
(* ------------------------------------------------------------------ *)

let str_member name json =
  match Json.member name json with Some (Json.Str s) -> Some s | _ -> None

let num_member name json =
  match Json.member name json with
  | Some (Json.Num n) -> Some (int_of_float n)
  | _ -> None

let test_forensics_bundle_pinned () =
  (* The acceptance scenario: the Table 2 null-terminator overflow
     against the 2-variant UID configuration. The bundle must identify
     the diverging variant, the detection syscall, and the mismatched
     canonical argument; the trace's final coordinator events must
     include the divergence rendezvous and the alarm. *)
  let attack =
    match Campaign.find "uid-null-overflow" with
    | Some a -> a
    | None -> Alcotest.fail "uid-null-overflow attack missing"
  in
  match Campaign.run_attack_traced attack Deploy.Two_variant_uid with
  | Error e -> Alcotest.failf "build failed: %s" e
  | Ok { Campaign.verdict; forensics; trace_json } ->
    (match verdict with
    | Campaign.Detected (Nv_core.Alarm.Arg_mismatch _) -> ()
    | v -> Alcotest.failf "expected Detected Arg_mismatch, got %s" (Campaign.verdict_label v));
    let bundle =
      match forensics with Some b -> b | None -> Alcotest.fail "no forensics bundle"
    in
    let alarm =
      match Json.member "alarm" bundle with
      | Some a -> a
      | None -> Alcotest.fail "bundle has no alarm"
    in
    Alcotest.(check (option string)) "alarm class" (Some "arg") (str_member "class" alarm);
    Alcotest.(check (option int)) "detection syscall number"
      (Some Syscall.sys_cc_eq) (num_member "syscall" alarm);
    Alcotest.(check (option string)) "detection syscall name" (Some "cc_eq")
      (str_member "syscall_name" alarm);
    Alcotest.(check (option int)) "mismatched argument index" (Some 0)
      (num_member "arg_index" alarm);
    (match Json.member "values" alarm with
    | Some (Json.List [ Json.Str v0; Json.Str v1 ]) ->
      Alcotest.(check bool)
        (Printf.sprintf "canonical values differ (%s vs %s)" v0 v1)
        true (v0 <> v1)
    | _ -> Alcotest.fail "alarm has no per-variant canonical values");
    (match Json.member "divergent_variants" alarm with
    | Some (Json.List [ Json.Num v ]) ->
      Alcotest.(check int) "diverging variant identified" 1 (int_of_float v)
    | _ -> Alcotest.fail "no divergent_variants");
    (* Per-variant machine state is present. *)
    (match Json.member "variants" bundle with
    | Some (Json.List (v0 :: _)) ->
      Alcotest.(check bool) "variant snapshot has registers" true
        (Json.member "registers" v0 <> None);
      Alcotest.(check bool) "variant snapshot has credentials" true
        (Json.member "credentials_reexpressed" v0 <> None)
    | _ -> Alcotest.fail "no variant snapshots");
    (* Ring tails are attached, and the coordinator tail ends with the
       divergence rendezvous followed by the alarm. *)
    let rings =
      match Json.member "rings" bundle with
      | Some (Json.List rs) -> rs
      | _ -> Alcotest.fail "no ring tails"
    in
    let coord =
      match
        List.find_opt (fun r -> str_member "name" r = Some "coordinator") rings
      with
      | Some r -> r
      | None -> Alcotest.fail "no coordinator ring tail"
    in
    let coord_kinds =
      match Json.member "events" coord with
      | Some (Json.List evs) -> List.filter_map (str_member "kind") evs
      | _ -> Alcotest.fail "coordinator tail has no events"
    in
    let rec last2 = function
      | [ a; b ] -> (a, b)
      | _ :: tl -> last2 tl
      | [] -> Alcotest.fail "coordinator tail empty"
    in
    let k1, k2 = last2 coord_kinds in
    Alcotest.(check string) "penultimate coordinator event" "rendezvous" k1;
    Alcotest.(check string) "final coordinator event" "alarm" k2;
    (* And the Chrome export both parses and ends on the same story. *)
    (match Json.of_string (Json.to_string trace_json) with
    | Error e -> Alcotest.failf "trace json does not parse: %s" e
    | Ok _ -> ());
    (match Json.member "traceEvents" trace_json with
    | Some (Json.List evs) when evs <> [] ->
      let names = List.filter_map (str_member "name") evs in
      Alcotest.(check bool) "divergence rendezvous exported" true
        (List.mem "rendezvous:cc_eq" names);
      Alcotest.(check bool) "alarm exported" true (List.mem "alarm:arg" names)
    | _ -> Alcotest.fail "trace json has no events");
    Alcotest.(check bool) "forensics attached to chrome export" true
      (Json.member "forensics" trace_json <> None)

(* ------------------------------------------------------------------ *)
(* Supervisor recovery records carry forensics                         *)
(* ------------------------------------------------------------------ *)

let test_recovery_log_forensics () =
  let attack =
    match Campaign.find "uid-null-overflow" with
    | Some a -> a
    | None -> Alcotest.fail "uid-null-overflow attack missing"
  in
  let recover = Nv_core.Supervisor.default_config in
  match Campaign.run_attack_traced ~recover attack Deploy.Two_variant_uid with
  | Error e -> Alcotest.failf "build failed: %s" e
  | Ok { Campaign.verdict; _ } ->
    (match verdict with
    | Campaign.Recovered _ -> ()
    | v -> Alcotest.failf "expected Recovered, got %s" (Campaign.verdict_label v))

let test_metrics_published () =
  let t = Trace.create () in
  Trace.set_enabled t true;
  let r = Trace.ring t ~name:"x" ~pid:0 ~tid:0 in
  Trace.record r ~ts:1 Trace.Quantum_begin;
  let reg = Metrics.create () in
  Trace.publish t reg;
  let gauge name =
    match Metrics.to_json_value reg with
    | Json.Obj groups -> (
      match List.assoc_opt "gauges" groups with
      | Some (Json.Obj fields) -> (
        match List.assoc_opt name fields with
        | Some (Json.Num n) -> Some (int_of_float n)
        | _ -> None)
      | _ -> None)
    | _ -> None
  in
  Alcotest.(check (option int)) "trace.rings" (Some 1) (gauge "trace.rings");
  Alcotest.(check (option int)) "trace.events" (Some 1) (gauge "trace.events");
  Alcotest.(check (option int)) "trace.dropped" (Some 0) (gauge "trace.dropped")

let () =
  Alcotest.run "nv_trace"
    [
      ( "ring",
        [
          Alcotest.test_case "overflow drops oldest" `Quick test_ring_overflow_drops_oldest;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "disabled allocates nothing" `Quick
            test_disabled_allocates_nothing;
          Alcotest.test_case "metrics published" `Quick test_metrics_published;
        ] );
      ( "sinks",
        [ Alcotest.test_case "chrome export shape" `Quick test_chrome_export_shape ] );
      ( "determinism",
        [
          Alcotest.test_case "seq == par streams" `Quick test_seq_par_identical_streams;
        ] );
      ( "forensics",
        [
          Alcotest.test_case "pinned overflow bundle" `Quick test_forensics_bundle_pinned;
          Alcotest.test_case "recovery absorbs with log" `Quick test_recovery_log_forensics;
        ] );
    ]
