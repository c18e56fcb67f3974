(* Serving benchmark of the monitored N-variant system.

   One closed-loop client on one connection at a time drives four
   workloads through the public API (Deploy.build, Nsystem.serve/run,
   Supervisor, Openload). An untraced run prints the end-to-end metrics;
   a traced run (--trace 1) records spans from this file around each call
   into a layer and prints the per-layer metrics. The last line of
   standard output is one JSON object: correct, attempted, failed and
   metrics. See README.md in this directory for the workloads, the
   layer -> metric -> workload map and the measured figures. *)

module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Supervisor = Nv_core.Supervisor
module Variation = Nv_core.Variation
module Deploy = Nv_httpd.Deploy
module Http = Nv_httpd.Http
module Site = Nv_httpd.Site
module Socket = Nv_os.Socket
module Passwd = Nv_os.Passwd
module Payloads = Nv_attacks.Payloads
module Openload = Nv_workload.Openload
module Measure = Nv_workload.Measure
module Cost_model = Nv_workload.Cost_model
module Fleet = Nv_sim.Fleet
module Arrivals = Nv_sim.Arrivals
module Metrics = Nv_util.Metrics

(* Seconds on the monotonic clock, with nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let workloads = [ "serve_seq"; "serve_par"; "serve_attacked"; "fleet_capacity" ]

let end_to_end_units =
  [
    ("req_p50_us", "us");
    ("req_p99_us", "us");
    ("req_per_s", "1/s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
    ("host_s_per_sim_s", "s/s");
  ]

let per_layer_units =
  [
    ("vm.instr_per_req", "instr");
    ("vm.guest_mips", "MIPS");
    ("vm.block_hits_per_req", "count");
    ("vm.block_invalidations", "count");
    ("monitor.rendezvous_per_req", "count");
    ("monitor.relaxed_frac", "fraction");
    ("monitor.checks_per_req", "count");
    ("monitor.work_run_us", "us");
    ("monitor.park_run_us", "us");
    ("kernel.syscalls_per_req", "count");
    ("monitor.input_bytes_per_req", "B");
    ("monitor.output_writes_per_req", "count");
    ("serve.client_io_us", "us");
    ("gc.minor_words_per_req", "words");
    ("gc.major_per_kreq", "count");
    ("supervisor.checkpoints_per_req", "count");
    ("supervisor.snapshot_us", "us");
    ("supervisor.restore_us", "us");
    ("supervisor.recoveries", "count");
    ("fleet.index_s", "s");
    ("fleet.index_builds", "count");
    ("fleet.des_us_per_arrival", "us");
    ("fleet.arrivals", "count");
    ("fleet.population_s", "s");
    ("fleet.passwd_world_s", "s");
    ("fleet.profile_s", "s");
    ("trace.overhead_frac", "fraction");
  ]

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;  (** fixed, small operation counts instead of --seconds *)
  wrong_body : bool;  (** self-test: expect a wrong body for "/" *)
  git_sha : string;
  spans_out : string;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny] \
     [--wrong-body] [--git-sha SHA] [--spans-out DIR]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and wrong_body = ref false in
  let git_sha = ref "unknown" and spans_out = ref "perfbench-out" in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--wrong-body" :: rest -> wrong_body := true; go rest
    | "--git-sha" :: v :: rest -> git_sha := v; go rest
    | "--spans-out" :: v :: rest -> spans_out := v; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem !workload workloads) then usage ();
  match !seed with
  | None -> usage ()
  | Some seed ->
    {
      workload = !workload;
      seed;
      seconds = !seconds;
      traced = !trace = 1;
      tiny = !tiny;
      wrong_body = !wrong_body;
      git_sha = !git_sha;
      spans_out = !spans_out;
    }

(* Memory.default_engine and Dompool.env_default read these, so either
   would silently change the program being measured. *)
let refuse_env () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some v ->
        Printf.eprintf "perfbench: %s=%s is set; unset it, it changes the measured program\n"
          var v;
        exit 2
      | None -> ())
    [ "NV_ENGINE"; "NV_PARALLEL" ]

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

(* Growable float buffer for latency samples. *)
module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let bigger = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 bigger 0 b.n;
      b.a <- bigger
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* The samples [lo, hi), sorted. *)
  let sorted_range b lo hi =
    let s = Array.sub b.a lo (hi - lo) in
    Array.sort Float.compare s;
    s

  let sorted b = sorted_range b 0 b.n
end

(* Nearest-rank percentile of a sorted array; 0 when empty. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  percentile s 0.5

let div a b = if b = 0. then 0. else a /. b

let heap_mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec at i j = j = n || (haystack.[i + j] = needle.[j] && at i (j + 1)) in
  let rec scan i = i <= h - n && (at i 0 || scan (i + 1)) in
  n = 0 || scan 0

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* ------------------------------------------------------------------ *)
(* Outcome tally                                                       *)
(* ------------------------------------------------------------------ *)

(* Every operation is checked and counted, never aborted on. A failed
   operation is one that was refused, dropped, stopped or answered
   wrongly; [incorrect] counts the subset that produced a wrong answer
   (a wrong body, a leaked shadow file, an undetected attack, a broken
   invariant) rather than no answer. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  checks : (string, int ref * int ref) Hashtbl.t;
  mutable check_order : string list;
  digest : Buffer.t;  (** deterministic record of every outcome *)
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    incorrect = 0;
    checks = Hashtbl.create 8;
    check_order = [];
    digest = Buffer.create 4096;
  }

let check t name ok =
  let pass, fail =
    match Hashtbl.find_opt t.checks name with
    | Some v -> v
    | None ->
      let v = (ref 0, ref 0) in
      Hashtbl.replace t.checks name v;
      t.check_order <- name :: t.check_order;
      v
  in
  if ok then incr pass else incr fail;
  ok

type verdict = Good | No_answer | Wrong

let count_op t verdict =
  t.attempted <- t.attempted + 1;
  match verdict with
  | Good -> ()
  | No_answer -> t.failed <- t.failed + 1
  | Wrong ->
    t.failed <- t.failed + 1;
    t.incorrect <- t.incorrect + 1

(* ------------------------------------------------------------------ *)
(* Serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

type server = { sys : Nsystem.t; mon : Monitor.t; sup : Supervisor.t option }

type serve_spec = { parallel : bool; supervised : bool }

let serve_spec = function
  | "serve_par" -> { parallel = true; supervised = false }
  | "serve_attacked" -> { parallel = false; supervised = true }
  | _ -> { parallel = false; supervised = false }

type sizes = {
  setups : int;  (** set-ups timed before the warm-up *)
  warmup_batches : int;
  window_batches : int;  (** batches per timing window *)
  block_windows : int;  (** windows between restores of the post-warm-up state *)
  blocks : int;  (** timed blocks *)
  attack_every : int;  (** benign requests per stretch holding one attack *)
  tail : int;  (** benign requests after the parked memory fault *)
}

let paths = Site.request_mix

(* The timed work is a fixed number of blocks, so every run of a seed
   serves the same requests whatever the host's speed. It is sized from
   --seconds and a nominal request rate (a 2-vCPU host, between its fast
   and slow phases), so that a run lasts about --seconds. On that host a
   window is about 0.1 s of serving for serve_seq and about 0.5 s for
   the others, and a block about 1 s (2.5 s for serve_par).

   One attack per 1000 benign requests keeps any 100k-rendezvous window
   (about 4.7k requests at 21 rendezvous each) at 6 or fewer rollbacks,
   under Supervisor.default_config's budget of 8. *)
let serve_sizes opts =
  let window_batches, block_windows, nominal_rps =
    match opts.workload with
    | "serve_seq" -> (25, 10, 2600.)
    | "serve_attacked" -> (25, 2, 600.)
    | _ -> (10, 5, 240.)
  in
  if opts.tiny then
    {
      setups = 2;
      warmup_batches = 1;
      window_batches = 1;
      block_windows = 2;
      blocks = 2;
      attack_every = 12;
      tail = 6;
    }
  else
    let block_requests = float_of_int (window_batches * block_windows * Array.length paths) in
    {
      setups = 31;
      warmup_batches = 10;
      window_batches;
      block_windows;
      blocks = max 2 (int_of_float (Float.round (opts.seconds *. nominal_rps /. block_requests)));
      attack_every = 1000;
      tail = 16;
    }

let expected_bodies ~wrong_body =
  Array.map
    (fun path ->
      let name = if path = "/" then "index.html" else String.sub path 1 (String.length path - 1) in
      match List.find_opt (fun f -> f.Site.name = name) Site.files with
      | Some f ->
        let body = Site.content f in
        if wrong_body && path = "/" then body ^ "!" else body
      | None -> failwith ("no site file for " ^ path))
    paths

let requests = Array.map Http.get paths

let build_server spec =
  let recover = if spec.supervised then Some Supervisor.default_config else None in
  match Deploy.build ~parallel:spec.parallel ?recover Deploy.Two_variant_uid with
  | Ok sys -> { sys; mon = Nsystem.monitor sys; sup = Nsystem.supervisor sys }
  | Error e -> failwith ("Deploy.build: " ^ e)

let first_park srv =
  match Nsystem.run srv.sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> failwith "server did not park on accept"

(* Drive one request through the public steps Nsystem.serve itself
   takes, with a span around each call into a layer. Attack requests
   get [prefix] "attack." so their spans stay out of the benign means. *)
let serve_traced sp srv ~prefix ~root ~req request =
  let step name f = Spans.with_span sp ~parent:root ~req (prefix ^ name) f in
  match step "nsystem.run.park" (fun () -> Nsystem.run srv.sys) with
  | Monitor.Blocked_on_accept -> (
    let conn = step "socket.connect" (fun () -> Nsystem.connect srv.sys) in
    step "socket.send" (fun () -> Socket.client_send conn request);
    step "socket.close" (fun () -> Socket.client_close conn);
    match step "nsystem.run.work" (fun () -> Nsystem.run srv.sys) with
    | Monitor.Blocked_on_accept ->
      Nsystem.Served (step "socket.recv" (fun () -> Socket.client_recv conn))
    | outcome -> Nsystem.Stopped outcome)
  | outcome -> Nsystem.Stopped outcome

let outcome_label = function
  | Nsystem.Served raw -> Printf.sprintf "served:%d" (String.length raw)
  | Nsystem.Stopped (Monitor.Alarm _) -> "stopped:alarm"
  | Nsystem.Stopped (Monitor.Exited n) -> Printf.sprintf "stopped:exit%d" n
  | Nsystem.Stopped Monitor.Blocked_on_accept -> "stopped:blocked"
  | Nsystem.Stopped Monitor.Out_of_fuel -> "stopped:fuel"

let judge_benign t expected result =
  match result with
  | Nsystem.Stopped _ ->
    ignore (check t "benign_served" false);
    No_answer
  | Nsystem.Served raw ->
    let leaked = not (check t "no_shadow_marker" (not (contains raw Payloads.shadow_marker))) in
    if raw = "" then begin
      ignore (check t "benign_served" false);
      No_answer
    end
    else begin
      ignore (check t "benign_served" true);
      let body_ok =
        match Http.parse_response raw with
        | Ok { Http.status = 200; body; _ } -> body = expected
        | Ok _ | Error _ -> false
      in
      if check t "benign_body" body_ok && not leaked then Good else Wrong
    end

(* The four wire attacks from Payloads, all detected on config4; under
   the supervisor each must cost exactly one rollback and leak nothing. *)
let attack_requests srv =
  let tag = (Nsystem.variation srv.sys).Variation.variants.(0).Variation.tag in
  [|
    ("null-overflow", Http.get (Payloads.null_overflow_url ()));
    ("partial-byte", Http.get (Payloads.partial_overwrite_url ~low_byte:'\x01'));
    ("three-byte", Http.get (Payloads.three_byte_overwrite_url ~low_bytes:"AAA"));
    ("stack-code-injection", Payloads.code_injection_request srv.sys ~tag);
  |]

let judge_attack t ~recovered result =
  let leaked =
    match result with
    | Nsystem.Served raw -> contains raw Payloads.shadow_marker
    | Nsystem.Stopped _ -> false
  in
  let no_leak = check t "no_shadow_marker" (not leaked) in
  let detected = check t "attack_recovered_once" (recovered = 1) in
  match result with
  | _ when not no_leak -> Wrong
  | _ when recovered = 0 -> Wrong
  | Nsystem.Served _ when detected -> Good
  | Nsystem.Served _ | Nsystem.Stopped _ -> No_answer

(* Counters read around each benign request. *)
type counters = {
  instr : int;
  rdv : int;
  relaxed : int;
  checks : int;
  input_bytes : int;
  output_writes : int;
  syscalls : int;
  block_hits : int;
  block_invalidations : int;
  checkpoints : int;
}

let zero =
  {
    instr = 0;
    rdv = 0;
    relaxed = 0;
    checks = 0;
    input_bytes = 0;
    output_writes = 0;
    syscalls = 0;
    block_hits = 0;
    block_invalidations = 0;
    checkpoints = 0;
  }

let read_counters srv ~full =
  let instr = Monitor.instructions_retired srv.mon and rdv = Monitor.rendezvous_count srv.mon in
  let checkpoints = match srv.sup with Some s -> Supervisor.checkpoints s | None -> 0 in
  if not full then { zero with instr; rdv; checkpoints }
  else begin
    let st = Monitor.stats srv.mon in
    let hits = ref 0 and inval = ref 0 in
    for i = 0 to Monitor.variant_count srv.mon - 1 do
      let _, h, inv = Nv_vm.Cpu.block_stats (Monitor.loaded srv.mon i).Nv_vm.Image.cpu in
      hits := !hits + h;
      inval := !inval + inv
    done;
    {
      instr;
      rdv;
      relaxed = st.Monitor.st_relaxed_checks;
      checks = st.Monitor.st_checks_performed;
      input_bytes = st.Monitor.st_input_bytes_replicated;
      output_writes = st.Monitor.st_output_writes_checked;
      syscalls =
        Option.value ~default:0
          (Metrics.find_counter (Nsystem.metrics srv.sys) "kernel.syscalls");
      block_hits = !hits;
      block_invalidations = !inval;
      checkpoints;
    }
  end

let diff a b =
  {
    instr = b.instr - a.instr;
    rdv = b.rdv - a.rdv;
    relaxed = b.relaxed - a.relaxed;
    checks = b.checks - a.checks;
    input_bytes = b.input_bytes - a.input_bytes;
    output_writes = b.output_writes - a.output_writes;
    syscalls = b.syscalls - a.syscalls;
    block_hits = b.block_hits - a.block_hits;
    block_invalidations = b.block_invalidations - a.block_invalidations;
    checkpoints = b.checkpoints - a.checkpoints;
  }

let add a b =
  {
    instr = a.instr + b.instr;
    rdv = a.rdv + b.rdv;
    relaxed = a.relaxed + b.relaxed;
    checks = a.checks + b.checks;
    input_bytes = a.input_bytes + b.input_bytes;
    output_writes = a.output_writes + b.output_writes;
    syscalls = a.syscalls + b.syscalls;
    block_hits = a.block_hits + b.block_hits;
    block_invalidations = a.block_invalidations + b.block_invalidations;
    checkpoints = a.checkpoints + b.checkpoints;
  }

type serve_state = {
  opts : opts;
  sizes : sizes;
  srv : server;
  spans : Spans.t option;
  t : tally;
  rng : Random.State.t;
  expected : string array;
  attacks : (string * string) array;
  variants : int;
  mutable req_id : int;
  mutable benign_in_block : int;
  mutable attack_at : int;  (** position of this stretch's attack; -1 for none *)
  mutable stretches_left : int;  (** complete stretches still to start *)
  (* timed-phase accumulators *)
  lat_plain : Fbuf.t;
  lat_traced : Fbuf.t;
  mutable block_pos : int;  (** position of the current batch in its block *)
  pos_s : float array;  (** latency sum per block position *)
  pos_n : int array;
  mutable served_ok : int;  (** benign requests counted into [totals] *)
  mutable modeled_s : float;
  mutable totals : counters;
  mutable minor_words : float;
  mutable minor_reqs : int;
  mutable batch_ref : (int * int) option;  (** per-batch (instr, rdv) *)
  mutable traced_instr : int;
}

(* Only complete stretches of [attack_every] benign requests hold an
   attack, so a run attempts as many operations whatever its seed. *)
let next_attack_slot st =
  if st.stretches_left > 0 then begin
    st.attack_at <- Random.State.int st.rng st.sizes.attack_every;
    st.stretches_left <- st.stretches_left - 1
  end
  else st.attack_at <- -1;
  st.benign_in_block <- 0

let run_attack st ~traced =
  let name, request = st.attacks.(Random.State.int st.rng (Array.length st.attacks)) in
  let sup = Option.get st.srv.sup in
  let before = Supervisor.recoveries sup in
  let req = st.req_id in
  st.req_id <- req + 1;
  let result =
    match st.spans with
    | Some sp when traced ->
      Spans.with_span sp ~parent:(-1) ~req ("attack." ^ name) (fun () ->
          let root = Spans.count sp - 1 in
          serve_traced sp st.srv ~prefix:"attack." ~root ~req request)
    | _ -> Nsystem.serve st.srv.sys request
  in
  let recovered = Supervisor.recoveries sup - before in
  Printf.bprintf st.t.digest "A%s:%d:%s;" name recovered (outcome_label result);
  count_op st.t (judge_attack st.t ~recovered result)

(* One benign request. [timed] requests feed latency and counter
   totals; warm-up and tail requests are only checked. *)
let run_benign st ~i ~timed ~traced =
  let full = st.spans <> None in
  let c0 = read_counters st.srv ~full in
  let w0 = if full && not traced then Gc.minor_words () else 0. in
  let req = st.req_id in
  st.req_id <- req + 1;
  let t0 = now () in
  let result =
    match st.spans with
    | Some sp when traced ->
      Spans.with_span sp ~parent:(-1) ~req "request" (fun () ->
          let root = Spans.count sp - 1 in
          serve_traced sp st.srv ~prefix:"" ~root ~req requests.(i))
    | _ -> Nsystem.serve st.srv.sys requests.(i)
  in
  let dt = now () -. t0 in
  let w1 = if full && not traced then Gc.minor_words () else 0. in
  let c = diff c0 (read_counters st.srv ~full) in
  let verdict = judge_benign st.t st.expected.(i) result in
  Printf.bprintf st.t.digest "B%d:%d:%d:%s;" i c.instr c.rdv (outcome_label result);
  count_op st.t verdict;
  if timed && verdict = Good then begin
    Fbuf.add (if traced then st.lat_traced else st.lat_plain) dt;
    st.pos_s.(st.block_pos) <- st.pos_s.(st.block_pos) +. dt;
    st.pos_n.(st.block_pos) <- st.pos_n.(st.block_pos) + 1;
    st.served_ok <- st.served_ok + 1;
    st.modeled_s <-
      st.modeled_s
      +. Cost_model.cpu_seconds Cost_model.default ~instructions:c.instr ~rendezvous:c.rdv
           ~variants:st.variants;
    st.totals <- add st.totals c;
    if full && not traced then begin
      st.minor_words <- st.minor_words +. (w1 -. w0);
      st.minor_reqs <- st.minor_reqs + 1
    end;
    if traced then st.traced_instr <- st.traced_instr + c.instr
  end;
  c

(* A batch serves every entry of Site.request_mix once, in a seeded
   order, so every complete batch does identical guest work whatever
   the seed; that is checked batch by batch. *)
let run_batch st ~timed ~traced =
  let order = Array.init (Array.length paths) Fun.id in
  shuffle st.rng order;
  let instr = ref 0 and rdv = ref 0 and clean = ref true in
  Array.iter
    (fun i ->
      if st.srv.sup <> None then begin
        if st.benign_in_block = st.attack_at then run_attack st ~traced;
        st.benign_in_block <- st.benign_in_block + 1;
        if st.benign_in_block = st.sizes.attack_every then next_attack_slot st
      end;
      let failed0 = st.t.failed in
      let c = run_benign st ~i ~timed ~traced in
      if st.t.failed <> failed0 then clean := false;
      instr := !instr + c.instr;
      rdv := !rdv + c.rdv)
    order;
  if !clean then
    match st.batch_ref with
    | None -> st.batch_ref <- Some (!instr, !rdv)
    | Some r ->
      if not (check st.t "per_request_counts" (r = (!instr, !rdv))) then
        count_op st.t Wrong

let time_snapshots st =
  let reps = if st.opts.tiny then 3 else 21 in
  let snap_s = Array.make reps 0. and restore_s = Array.make reps 0. in
  for k = 0 to reps - 1 do
    let sp = Option.get st.spans in
    let t0 = now () in
    let snap = Spans.with_span sp ~parent:(-1) ~req:(-1) "supervisor.snapshot" (fun () ->
        Monitor.snapshot st.srv.mon)
    in
    let t1 = now () in
    let dropped = Spans.with_span sp ~parent:(-1) ~req:(-1) "supervisor.restore" (fun () ->
        Monitor.restore st.srv.mon snap)
    in
    let t2 = now () in
    ignore (check st.t "restore_drops_nothing" (dropped = 0));
    snap_s.(k) <- t1 -. t0;
    restore_s.(k) <- t2 -. t1
  done;
  (median snap_s, median restore_s)

(* The parked memory fault of the fault tail: a bit flip in the stored
   worker uid that the monitor detects on the next UID-bearing call. *)
let fault_tail st =
  (match Nsystem.run st.srv.sys with
  | Monitor.Blocked_on_accept -> Payloads.flip_stored_uid_bit ~bit:0 ~value:false st.srv.sys
  | _ -> ());
  let tail_failed0 = st.t.failed in
  for k = 0 to st.sizes.tail - 1 do
    ignore (run_benign st ~i:(k mod Array.length paths) ~timed:false ~traced:false)
  done;
  st.t.failed - tail_failed0

type measured = {
  tally : tally;
  metrics : (string * float) list;
  notes : string list;  (** printed as comment lines before the result *)
  spans : Spans.t option;
  engine : string;  (** the VM engine in effect *)
  parallel : bool;  (** variant-execution mode *)
}

let run_serve opts =
  let spec = serve_spec opts.workload in
  let sizes = serve_sizes opts in
  let spans = if opts.traced then Some (Spans.create ()) else None in
  let span name f =
    match spans with Some sp -> Spans.with_span sp ~parent:(-1) ~req:(-1) name f | None -> f ()
  in
  (* Each set-up builds a server and runs it until it first parks on
     accept. A full major collection before each, outside the clock,
     keeps the garbage of the one before out of its time. *)
  let builds = ref [] and parks = ref [] in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let srv = span "setup.build" (fun () -> build_server spec) in
    let t1 = now () in
    span "setup.first_park" (fun () -> first_park srv);
    builds := (t1 -. t0) :: !builds;
    parks := (now () -. t1) :: !parks;
    srv
  in
  (* Only the last server is kept, so the earlier ones are garbage by
     the time the timed phase starts. *)
  for _ = 2 to sizes.setups do
    ignore (setup ())
  done;
  let srv = setup () in
  let rng = Random.State.make [| opts.seed |] in
  let block_batches = sizes.window_batches * sizes.block_windows in
  let st =
    {
      opts;
      sizes;
      srv;
      spans;
      t = tally ();
      rng;
      expected = expected_bodies ~wrong_body:opts.wrong_body;
      attacks = (if spec.supervised then attack_requests srv else [||]);
      variants = Monitor.variant_count srv.mon;
      req_id = 0;
      benign_in_block = 0;
      attack_at = 0;
      stretches_left =
        (sizes.warmup_batches + (sizes.blocks * block_batches)) * Array.length paths
        / sizes.attack_every;
      lat_plain = Fbuf.create ();
      lat_traced = Fbuf.create ();
      block_pos = 0;
      pos_s = Array.make block_batches 0.;
      pos_n = Array.make block_batches 0;
      served_ok = 0;
      modeled_s = 0.;
      totals = zero;
      minor_words = 0.;
      minor_reqs = 0;
      batch_ref = None;
      traced_instr = 0;
    }
  in
  next_attack_slot st;
  Gc.compact ();
  for _ = 1 to sizes.warmup_batches do
    run_batch st ~timed:false ~traced:false
  done;
  (* The server appends a line to its log for every request, and
     Vfs.append_contents copies the whole file, so a request costs more
     the more requests came before it (README, finding 4). The timed
     phase therefore rolls the server back to its post-warm-up state at
     every block boundary, outside the clock, so every block does the
     same work. *)
  let block_start = Monitor.snapshot srv.mon in
  let gc0 = Gc.quick_stat () in
  let ops0 = st.t.attempted in
  (* Each window is the range [lo, hi) of its latency samples in lat_plain. *)
  let windows = ref [] and batch = ref 0 and wall = ref 0. and peak_heap_words = ref 0 in
  for block = 0 to sizes.blocks - 1 do
    if block > 0 then
      ignore (check st.t "block_restore_drops_nothing" (Monitor.restore srv.mon block_start = 0));
    for _ = 1 to sizes.block_windows do
      let lo = st.lat_plain.Fbuf.n in
      for _ = 1 to sizes.window_batches do
        st.block_pos <- !batch mod block_batches;
        let b0 = now () in
        (* The traced run interleaves plain and traced batches, so host
           drift cancels out of trace.overhead_frac. *)
        run_batch st ~timed:true ~traced:(opts.traced && !batch mod 2 = 1);
        wall := !wall +. (now () -. b0);
        incr batch
      done;
      windows := (lo, st.lat_plain.Fbuf.n) :: !windows
    done;
    (* The heap is read after the first block, so that it covers the
       same work on every run. *)
    if block = 0 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let wall = !wall in
  let gc1 = Gc.quick_stat () in
  let timed_ops = st.t.attempted - ops0 in
  let snapshot_us, restore_us =
    if opts.traced && spec.supervised then
      let s, r = time_snapshots st in
      (s *. 1e6, r *. 1e6)
    else (0., 0.)
  in
  let tail_failed = if spec.supervised then fault_tail st else 0 in
  let plain = Fbuf.sorted st.lat_plain and traced = Fbuf.sorted st.lat_traced in
  let builds = Array.of_list (List.rev !builds) and parks = Array.of_list (List.rev !parks) in
  let setup_times = Array.map2 ( +. ) builds parks in
  (* The host is shared, and for spells of a fraction of a second to
     minutes it runs the same work 1.3 to 1.6 times slower. Pooled over a
     run, the median request falls in whichever phase held most of the
     run, so it jumps between the two from run to run. req_p50_us is
     therefore the mean over the windows of each window's median, which
     moves in proportion to the share of slow windows, as req_per_s does,
     while a GC pause inside a window does not move it. *)
  let window_p50 =
    Array.of_list
      (List.filter_map
         (fun (lo, hi) ->
           if hi > lo then Some (percentile (Fbuf.sorted_range st.lat_plain lo hi) 0.5) else None)
         !windows)
  in
  let mean xs = div (Array.fold_left ( +. ) 0. xs) (float_of_int (Array.length xs)) in
  let n = float_of_int st.served_ok in
  let per_req x = div (float_of_int x) n in
  let tot = st.totals in
  let metrics =
    if not opts.traced then
      [
        ("req_p50_us", mean window_p50 *. 1e6);
        ("req_p99_us", percentile plain 0.99 *. 1e6);
        ("req_per_s", div (float_of_int st.served_ok) wall);
        ("setup_s", median setup_times);
        ("peak_heap_mb", heap_mb !peak_heap_words);
        ("host_s_per_sim_s", div wall st.modeled_s);
      ]
    else begin
      let sp = Option.get spans in
      let mean name =
        let k, s = Spans.totals sp name in
        div s (float_of_int k) *. 1e6
      in
      let _, work_s = Spans.totals sp "nsystem.run.work" in
      let io_s =
        List.fold_left
          (fun acc name -> acc +. snd (Spans.totals sp name))
          0.
          [ "socket.connect"; "socket.send"; "socket.close"; "socket.recv" ]
      in
      let root_n, _ = Spans.totals sp "request" in
      [
        ("vm.instr_per_req", per_req tot.instr);
        ("vm.guest_mips", div (float_of_int st.traced_instr) (work_s *. 1e6));
        ("vm.block_hits_per_req", per_req tot.block_hits);
        ("vm.block_invalidations", float_of_int tot.block_invalidations);
        ("monitor.rendezvous_per_req", per_req tot.rdv);
        ("monitor.relaxed_frac", div (float_of_int tot.relaxed) (float_of_int tot.rdv));
        ("monitor.checks_per_req", per_req tot.checks);
        ("monitor.work_run_us", mean "nsystem.run.work");
        ("monitor.park_run_us", mean "nsystem.run.park");
        ("kernel.syscalls_per_req", per_req tot.syscalls);
        ("monitor.input_bytes_per_req", per_req tot.input_bytes);
        ("monitor.output_writes_per_req", per_req tot.output_writes);
        ("serve.client_io_us", div io_s (float_of_int root_n) *. 1e6);
        ("gc.minor_words_per_req", div st.minor_words (float_of_int st.minor_reqs));
        ( "gc.major_per_kreq",
          div
            (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) *. 1000.)
            (float_of_int timed_ops) );
        ("supervisor.checkpoints_per_req", per_req tot.checkpoints);
        ("supervisor.snapshot_us", snapshot_us);
        ("supervisor.restore_us", restore_us);
        ( "supervisor.recoveries",
          float_of_int (match srv.sup with Some s -> Supervisor.recoveries s | None -> 0) );
        ( "trace.overhead_frac",
          if Array.length plain = 0 || Array.length traced = 0 then 0.
          else (percentile traced 0.5 /. percentile plain 0.5) -. 1. );
      ]
    end
  in
  let notes =
    [
      Printf.sprintf "timed phase: %.3f s, %d operations, %d benign served, %d latency samples"
        wall timed_ops st.served_ok (Array.length plain);
      Printf.sprintf
        "%d blocks of %d windows of %d batches; mean latency %.1f us in a block's first batch, \
         %.1f us in its last"
        sizes.blocks sizes.block_windows sizes.window_batches
        (div st.pos_s.(0) (float_of_int st.pos_n.(0)) *. 1e6)
        (div st.pos_s.(block_batches - 1) (float_of_int st.pos_n.(block_batches - 1)) *. 1e6);
      Printf.sprintf
        "%d windows; window p50 min %.1f median %.1f max %.1f us; all samples p50 %.1f us"
        (Array.length window_p50)
        (Array.fold_left Float.min Float.infinity window_p50 *. 1e6)
        (median window_p50 *. 1e6)
        (Array.fold_left Float.max 0. window_p50 *. 1e6)
        (percentile plain 0.5 *. 1e6);
      Printf.sprintf "setup: build median %.6f s, first park median %.6f s over %d setups"
        (median builds) (median parks) (Array.length setup_times);
    ]
    @ (if (not opts.traced) && Array.length plain < 1000 then
         [ "req_p99_us: fewer than 1000 samples, so fewer than 10 lie beyond p99" ]
       else [])
    @
    if spec.supervised then
      [ Printf.sprintf "fault tail: %d of %d requests failed" tail_failed sizes.tail ]
    else []
  in
  {
    tally = st.t;
    metrics;
    notes;
    spans;
    engine =
      Nv_vm.Memory.engine_to_string (Nv_vm.Memory.engine (Monitor.loaded srv.mon 0).Nv_vm.Image.memory);
    parallel = Monitor.parallel srv.mon;
  }

(* ------------------------------------------------------------------ *)
(* Fleet workload                                                      *)
(* ------------------------------------------------------------------ *)

type fleet_sizes = {
  users : int;
  duration_s : float;
  warmup_rounds : int;
  f_setups : int;
  rounds : int;  (** timed rounds *)
}

(* A fixed number of rounds, so every run of a seed does the same work.
   On a 2-vCPU host a round of three calls takes about 3.5 s, which
   sizes the rounds so that the timed phase lasts about --seconds. *)
let fleet_sizes opts =
  if opts.tiny then { users = 2_000; duration_s = 2.0; warmup_rounds = 0; f_setups = 2; rounds = 2 }
  else
    {
      users = 200_000;
      duration_s = 30.0;
      warmup_rounds = 1;
      f_setups = 5;
      rounds = max 2 (int_of_float (Float.round (opts.seconds /. 3.5)));
    }

(* Fixed rates, so the inputs do not depend on the program measured.
   With the current server the profiled mean demand is about 1.25 ms, so
   Fleet.default's 4 replicas x 2 cores serve about 6400 req/s: Poisson
   runs at 0.9 of that, bursty at the same mean rate, and diurnal peaks
   15% above it. *)
let arrival_models =
  [|
    Arrivals.Poisson { rate = 5750. };
    Arrivals.Bursty { rate = 5750.; burst_mean = 16.0; intra_gap_s = 0.0005 };
    Arrivals.Diurnal { rate = 5430.; amplitude = 0.35; period_s = 15.0 };
  |]

let run_fleet opts =
  let sizes = fleet_sizes opts in
  let spans = if opts.traced then Some (Spans.create ()) else None in
  let span name f =
    match spans with Some sp -> Spans.with_span sp ~parent:(-1) ~req:(-1) name f | None -> f ()
  in
  let timed f =
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  in
  let config = Deploy.Two_variant_uid in
  let variation = Deploy.variation config in
  (* Only the last set-up's entries are kept. A full major collection
     before each set-up, outside the clock, frees the one before, so
     neither its time nor the peak heap depends on when the GC ran. *)
  let pop_t = ref [] and world_t = ref [] and profile_t = ref [] in
  let setup () =
    Gc.full_major ();
    let entries, pop_s =
      timed (fun () ->
          span "setup.population" (fun () ->
              Openload.population ~seed:opts.seed ~users:sizes.users ()))
    in
    let file_sizes, world_s =
      timed (fun () ->
          span "setup.passwd_world" (fun () -> snd (Openload.passwd_world ~entries ~variation)))
    in
    let samples, profile_s =
      timed (fun () ->
          span "setup.profile" (fun () ->
              match Deploy.build config with
              | Error e -> failwith ("Deploy.build: " ^ e)
              | Ok sys -> (
                match Measure.profile ~requests:40 ~seed:opts.seed sys with
                | Ok s -> Array.sub s 1 (Array.length s - 1)
                | Error e -> failwith ("Measure.profile: " ^ e))))
    in
    pop_t := pop_s :: !pop_t;
    world_t := world_s :: !world_t;
    profile_t := profile_s :: !profile_t;
    (entries, samples, file_sizes)
  in
  for _ = 2 to sizes.f_setups do
    ignore (setup ())
  done;
  let entries, samples, file_sizes = setup () in
  let variants = Variation.count variation in
  let base = Fleet.default in
  let mean_service = Openload.mean_service_s ~variants samples in
  let capacity = float_of_int (base.Fleet.replicas * base.Fleet.cores) /. mean_service in
  let spec arrival duration_s =
    {
      Openload.replicas = base.Fleet.replicas;
      arrival;
      duration_s;
      users = sizes.users;
      attacks_per_10k = 2;
    }
  in
  let call k duration_s =
    Openload.run ~seed:(opts.seed + k) ~entries ~variants ~samples (spec arrival_models.(k) duration_s)
  in
  let t = tally () in
  Gc.compact ();
  let first = Array.make (Array.length arrival_models) None in
  let per_model = Array.make (Array.length arrival_models) [] in
  let lat_plain = Fbuf.create () and lat_traced = Fbuf.create () in
  let completed = ref 0 and arrivals = ref 0 and calls = ref 0 in
  let calls_s = ref 0. in
  (* Whole rounds only, so every run weighs the three models equally.
     Warm-up rounds are checked but not timed. A full major collection
     before each call, outside the clock, keeps one call's garbage out of
     the next call's time. *)
  let run_round ~timed ~traced =
    Array.iteri
      (fun k _ ->
        Gc.full_major ();
        let c0 = now () in
        let result =
          match spans with
          | Some sp when traced ->
            Spans.with_span sp ~parent:(-1) ~req:!calls "openload.run" (fun () ->
                call k sizes.duration_s)
          | _ -> call k sizes.duration_s
        in
        let dt = now () -. c0 in
        let r = result.Openload.fleet in
        let conserved =
          check t "fleet_conservation"
            (r.Fleet.arrivals = r.Fleet.completed + r.Fleet.rejected + r.Fleet.dropped
                               + r.Fleet.in_flight)
        in
        let same =
          match first.(k) with
          | None ->
            first.(k) <- Some r;
            true
          | Some r0 -> check t "fleet_same_seed" (compare r0 r = 0)
        in
        count_op t (if conserved && same then Good else Wrong);
        Printf.bprintf t.digest "F%s:%d:%d:%d:%d:%d;" r.Fleet.model r.Fleet.arrivals
          r.Fleet.completed r.Fleet.rejected r.Fleet.dropped r.Fleet.in_flight;
        if timed then begin
          Fbuf.add (if traced then lat_traced else lat_plain) dt;
          if not traced then per_model.(k) <- dt :: per_model.(k);
          completed := !completed + r.Fleet.completed;
          arrivals := !arrivals + r.Fleet.arrivals;
          calls_s := !calls_s +. dt;
          incr calls
        end)
      arrival_models
  in
  for _ = 1 to sizes.warmup_rounds do
    run_round ~timed:false ~traced:false
  done;
  let t0 = now () in
  for round = 0 to sizes.rounds - 1 do
    run_round ~timed:true ~traced:(opts.traced && round mod 2 = 1)
  done;
  let wall = now () -. t0 in
  let plain = Fbuf.sorted lat_plain in
  let pop_t = Array.of_list !pop_t and world_t = Array.of_list !world_t in
  let profile_t = Array.of_list !profile_t in
  let pop_s = median pop_t and world_s = median world_t and profile_s = median profile_t in
  let setup_times = Array.init (Array.length pop_t) (fun k -> pop_t.(k) +. world_t.(k) +. profile_t.(k)) in
  (* Every call of a model does the same work (checked), so each model's
     call time is the median of its calls. The three models weigh
     equally: req_p50_us is the middle one, and req_p99_us the slowest
     (a few dozen calls are too few for a p99 of the calls themselves). One
     round's completed requests and simulated seconds are the same every
     round. *)
  let call_s = Array.map (fun times -> median (Array.of_list times)) per_model in
  let round_s = Array.fold_left ( +. ) 0. call_s in
  let first = Array.map Option.get first in
  let round_completed = Array.fold_left (fun acc r -> acc + r.Fleet.completed) 0 first in
  let round_sim_s = Array.fold_left (fun acc r -> acc +. r.Fleet.duration_s) 0. first in
  let metrics =
    if not opts.traced then
      [
        ("req_p50_us", median call_s *. 1e6);
        ("req_p99_us", Array.fold_left Float.max 0. call_s *. 1e6);
        ("req_per_s", div (float_of_int round_completed) round_s);
        ("setup_s", median setup_times);
        ("peak_heap_mb", heap_mb (Gc.quick_stat ()).Gc.top_heap_words);
        ("host_s_per_sim_s", div round_s round_sim_s);
      ]
    else begin
      let reps = 3 in
      (* Openload.run builds its passwd index on every call. The index
         builds per call are estimated from timings: a zero-length run
         (the per-call fixed work), less the rest of that fixed work
         redone here (the uid array over every entry), over one
         Passwd.index. The zero-length run also splits the calls into
         fixed and DES time. *)
      let median_time name f =
        median (Array.init reps (fun _ -> snd (timed (fun () -> span name f))))
      in
      let index_s = median_time "passwd.index" (fun () -> ignore (Passwd.index entries)) in
      let fixed_s = median_time "openload.run.empty" (fun () -> ignore (call 0 1e-6)) in
      let uids_s =
        median_time "openload.uids" (fun () ->
            ignore (Array.of_list (List.map (fun e -> e.Passwd.uid) entries)))
      in
      let index_builds =
        float_of_int !calls *. Float.round (div (Float.max 0. (fixed_s -. uids_s)) index_s)
      in
      let traced_sorted = Fbuf.sorted lat_traced in
      [
        ("fleet.index_s", index_s);
        ("fleet.index_builds", index_builds);
        ( "fleet.des_us_per_arrival",
          div (!calls_s -. (float_of_int !calls *. fixed_s)) (float_of_int !arrivals) *. 1e6 );
        ("fleet.arrivals", float_of_int !arrivals);
        ("fleet.population_s", pop_s);
        ("fleet.passwd_world_s", world_s);
        ("fleet.profile_s", profile_s);
        ( "trace.overhead_frac",
          if Array.length plain = 0 || Array.length traced_sorted = 0 then 0.
          else
            div (Array.fold_left ( +. ) 0. traced_sorted) (float_of_int (Array.length traced_sorted))
            /. div (Array.fold_left ( +. ) 0. plain) (float_of_int (Array.length plain))
            -. 1. );
      ]
    end
  in
  let notes =
    [
      Printf.sprintf
        "timed phase: %.3f s, of which %.3f s in %d Openload.run calls of %.0f simulated s; %d \
         arrivals, %d completed"
        wall !calls_s !calls sizes.duration_s !arrivals !completed;
      Printf.sprintf "fleet: %d users, %d replicas x %d cores, capacity %.0f req/s" sizes.users
        base.Fleet.replicas base.Fleet.cores capacity;
      Printf.sprintf "unshared passwd files: %s bytes"
        (String.concat ", " (Array.to_list (Array.map string_of_int file_sizes)));
      Printf.sprintf
        "call medians (s): %s; req_p50_us the middle model, req_p99_us the slowest"
        (String.concat ", "
           (Array.to_list
              (Array.mapi
                 (fun k c -> Printf.sprintf "%s %.3f" (Arrivals.model_name arrival_models.(k)) c)
                 call_s)));
      Printf.sprintf
        "setup medians over %d setups: population %.6f s, passwd_world %.6f s, \
         profile %.6f s"
        (Array.length setup_times) pop_s world_s profile_s;
    ]
    @ Array.to_list
        (Array.mapi
           (fun k times ->
             Printf.sprintf "%s calls (s): %s"
               (Arrivals.model_name arrival_models.(k))
               (String.concat " " (List.rev_map (Printf.sprintf "%.3f") times)))
           per_model)
  in
  {
    tally = t;
    metrics;
    notes;
    spans;
    engine = Nv_vm.Memory.engine_to_string (Nv_vm.Memory.default_engine ());
    parallel = false;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let () =
  refuse_env ();
  let opts = parse_args () in
  let m = if opts.workload = "fleet_capacity" then run_fleet opts else run_serve opts in
  let t = m.tally in
  let meta =
    [
      ("workload", opts.workload);
      ("seed", string_of_int opts.seed);
      ("trace", if opts.traced then "1" else "0");
      ("engine", m.engine);
      ("parallel", string_of_bool m.parallel);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("git_sha", opts.git_sha);
    ]
  in
  Printf.printf "# %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) meta));
  List.iter (Printf.printf "# %s\n") m.notes;
  List.iter
    (fun name ->
      let pass, fail = Hashtbl.find t.checks name in
      Printf.printf "check %s passed=%d failed=%d\n" name !pass !fail)
    (List.rev t.check_order);
  Printf.printf "metric failed_frac %s fraction\n"
    (json_float (div (float_of_int t.failed) (float_of_int t.attempted)));
  Printf.printf "digest %s\n" (Digest.to_hex (Digest.string (Buffer.contents t.digest)));
  let units = if opts.traced then per_layer_units else end_to_end_units in
  let values =
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:0. (List.assoc_opt name m.metrics), unit))
      units
  in
  List.iter (fun (name, v, unit) -> Printf.printf "metric %s %s %s\n" name (json_float v) unit) values;
  (match m.spans with
  | None -> ()
  | Some sp ->
    Printf.printf "# self time per span (layer): name spans total_ms mean_us\n";
    List.iter
      (fun (name, n, self) ->
        Printf.printf "self %s %d %.3f %.3f\n" name n (self *. 1e3)
          (div self (float_of_int n) *. 1e6))
      (Spans.self_times sp);
    (try Sys.mkdir opts.spans_out 0o755 with Sys_error _ -> ());
    let path =
      Filename.concat opts.spans_out
        (Printf.sprintf "spans-%s-seed%d.json" opts.workload opts.seed)
    in
    Spans.write_chrome sp ~meta path;
    Printf.printf "# wrote %d spans to %s\n" (Spans.count sp) path);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (t.incorrect = 0) t.attempted t.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v) unit)
          values))
