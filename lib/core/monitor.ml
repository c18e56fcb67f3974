module Cpu = Nv_vm.Cpu
module Word = Nv_vm.Word
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Kernel = Nv_os.Kernel
module Cred = Nv_os.Cred
module Syscall = Nv_os.Syscall
module Sysabi = Nv_os.Sysabi
module Metrics = Nv_util.Metrics
module Dompool = Nv_util.Dompool
module Spsc = Nv_util.Spsc
module Trace = Nv_util.Trace

type outcome = Exited of int | Alarm of Alarm.reason | Blocked_on_accept | Out_of_fuel

type signal_mode = Immediate of { after_instructions : int } | At_rendezvous

type pending_signal = {
  handler : string;
  mode : signal_mode;
  baselines : int array;  (* instructions retired per variant at post time *)
  delivered : bool array;
}

(* A relaxed syscall, executed locally by a variant between rendezvous
   points and posted to the coordinator for deferred cross-checking.
   [rc_retired] is the variant's retired-instruction count at the call
   (the latency stream is reconstructed from these, exactly as an
   eager rendezvous would have observed it); [rc_c0]/[rc_c1] are the
   canonicalized (reexpression-decoded) argument images the coordinator
   compares. *)
type relaxed_record = {
  rc_number : int;
  rc_retired : int;
  rc_a0 : int;
  rc_c0 : int;
  rc_c1 : int;
}

(* Why a variant stopped running and handed control back to the
   coordinator. [A_syscall] (parked at a sensitive — or, with a
   rendezvous-synchronized signal pending, any — syscall trap) is the
   only arrival that persists across [run] calls: the call has not been
   dispatched yet, so the variant must not be re-released over it. *)
type arrival =
  | A_syscall
  | A_fault of Cpu.fault
  | A_halt
  | A_fuel
  | A_raised of exn * Printexc.raw_backtrace

(* Concurrency discipline (see docs/architecture.md, "Concurrency"):
   while released, each variant's [Image.loaded] (CPU, memory, icache)
   plus its own [delivered.(i)] slot are owned by the domain pinned to
   that variant; everything else — the kernel, the metrics registry,
   [t.signal], the metric-handle caches, [canon_scratch],
   the [deferred] queues and [arrivals] — is only ever touched by the
   coordinator domain, between rounds. A released variant performs no
   [Metrics] mutation and never clears [t.signal]; the coordinator
   counts deliveries by diffing the [delivered] flags after the round
   and clears the signal itself. In parallel mode all cross-domain
   traffic flows through SPSC rings whose atomic operations order the
   plain reads/writes on either side. *)
type t = {
  kernel : Kernel.t;
  variation : Variation.t;
  variants : Image.loaded array;
  parallel : bool;  (* pin each variant to its own domain during run *)
  mutable signal : pending_signal option;
  (* Fault-injection hook: perturb the replicated bytes a shared read
     delivers to one variant (coordinator-only). *)
  mutable input_fault : (variant:int -> string -> string) option;
  metrics : Metrics.t;
  calls_scope : Metrics.scope;
  latency_scope : Metrics.scope;
  alarms_scope : Metrics.scope;
  rendezvous_c : Metrics.counter;
  checks_performed : Metrics.counter;
  checks_failed : Metrics.counter;
  input_bytes_replicated_c : Metrics.counter;
  output_writes_checked_c : Metrics.counter;
  signals_delivered_c : Metrics.counter;
  relaxed_checks_c : Metrics.counter;
  deferred_batch_h : Metrics.histogram;
  mutable last_rendezvous_instr : int;
  (* Relaxed-engine state (coordinator-owned): per-variant queues of
     posted-but-unchecked relaxed calls, the parked arrival per
     variant, and the size of the deferred batch flushed since the
     last flush boundary. *)
  deferred : relaxed_record Queue.t array;
  arrivals : arrival option array;
  mutable flush_batch : int;
  (* Hot-path caches: metric handles resolved per syscall number on
     first use (no hashtable lookup per rendezvous thereafter) and a
     scratch array reused by the canon_* argument checks. *)
  calls_by_number : Metrics.counter option array;
  latency_by_number : Metrics.histogram option array;
  canon_scratch : int array;
  (* Flight recorder: one ring per variant (owned by that variant's
     domain while it is released, like [Image.loaded]) plus a
     coordinator ring for rendezvous/flush/alarm events. Disabled by
     default; every recording site is gated on one atomic load. *)
  trace : Trace.t;
  trace_variants : Trace.ring array;
  trace_coord : Trace.ring;
  mutable forensics : Metrics.Json.value option;
}

(* One slot per syscall number; numbers outside the table fall back to
   a by-name lookup (they only occur on unknown-syscall attacks). *)
let syscall_slots = 32

let create ?metrics ?parallel ?engine
    ?(segment_size = Variation.default_segment_size)
    ?(stack_size = 64 * 1024) ~kernel ~variation images =
  let parallel =
    match parallel with Some b -> b | None -> Dompool.env_default ()
  in
  let n = Variation.count variation in
  if Array.length images <> n then
    invalid_arg "Monitor.create: need exactly one image per variant";
  if Kernel.variants kernel <> n then
    invalid_arg "Monitor.create: kernel variant count mismatch";
  List.iter (Kernel.register_unshared kernel) variation.Variation.unshared_paths;
  let variants =
    Array.mapi
      (fun i image ->
        let spec = variation.Variation.variants.(i) in
        let loaded =
          Image.load ~stack_size image ~base:spec.Variation.base ~size:segment_size
            ~tag:spec.Variation.tag
        in
        (* Every variant runs the same execution tier; unset, segments
           keep their creation default (NV_ENGINE or the block
           compiler). *)
        Option.iter (Memory.set_engine loaded.Image.memory) engine;
        loaded)
      images
  in
  let metrics = match metrics with Some m -> m | None -> Kernel.metrics kernel in
  let scope = Metrics.scope metrics "monitor" in
  let checks_scope = Metrics.sub scope "checks" in
  (* Chrome-export lanes: tid 0..n-1 = variants, n = coordinator,
     n+1 = kernel dispatch. The kernel runs on the coordinating domain
     only, timestamped by the total retired-instruction clock. *)
  let trace = Trace.create () in
  let trace_variants =
    Array.init n (fun i ->
        Trace.ring trace ~name:(Printf.sprintf "variant %d" i) ~pid:0 ~tid:i)
  in
  let trace_coord = Trace.ring trace ~name:"coordinator" ~pid:0 ~tid:n in
  let kernel_ring = Trace.ring trace ~name:"kernel" ~pid:0 ~tid:(n + 1) in
  Kernel.set_trace kernel ~ring:kernel_ring
    ~clock:(fun () ->
      Array.fold_left (fun acc v -> acc + Cpu.instructions_retired v.Image.cpu) 0 variants);
  {
    kernel;
    variation;
    variants;
    parallel;
    signal = None;
    input_fault = None;
    metrics;
    calls_scope = Metrics.sub scope "calls";
    latency_scope = Metrics.sub scope "latency_instr";
    alarms_scope = Metrics.sub scope "alarms";
    rendezvous_c = Metrics.counter scope "rendezvous";
    checks_performed = Metrics.counter checks_scope "performed";
    checks_failed = Metrics.counter checks_scope "failed";
    input_bytes_replicated_c = Metrics.counter scope "input_bytes_replicated";
    output_writes_checked_c = Metrics.counter scope "output_writes_checked";
    signals_delivered_c = Metrics.counter scope "signals_delivered";
    relaxed_checks_c = Metrics.counter scope "relaxed_checks";
    deferred_batch_h = Metrics.histogram scope "deferred_batch_size";
    last_rendezvous_instr = 0;
    deferred = Array.init n (fun _ -> Queue.create ());
    arrivals = Array.make n None;
    flush_batch = 0;
    calls_by_number = Array.make syscall_slots None;
    latency_by_number = Array.make syscall_slots None;
    canon_scratch = Array.make n 0;
    trace;
    trace_variants;
    trace_coord;
    forensics = None;
  }

(* Lazy per-number resolution keeps metric registration identical to
   the by-name path: a counter exists only once its syscall occurs. *)
let call_counter t n =
  if n >= 0 && n < syscall_slots then begin
    match t.calls_by_number.(n) with
    | Some c -> c
    | None ->
      let c = Metrics.counter t.calls_scope (Syscall.name n) in
      t.calls_by_number.(n) <- Some c;
      c
  end
  else Metrics.counter t.calls_scope (Syscall.name n)

let latency_histogram t n =
  if n >= 0 && n < syscall_slots then begin
    match t.latency_by_number.(n) with
    | Some h -> h
    | None ->
      let h = Metrics.histogram t.latency_scope (Syscall.name n) in
      t.latency_by_number.(n) <- Some h;
      h
  end
  else Metrics.histogram t.latency_scope (Syscall.name n)

let kernel t = t.kernel

let parallel t = t.parallel

let variation t = t.variation

let variant_count t = Array.length t.variants

let loaded t i = t.variants.(i)

let metrics t = t.metrics

let instructions_retired t =
  Array.fold_left (fun acc v -> acc + Cpu.instructions_retired v.Image.cpu) 0 t.variants

let rendezvous_count t = Metrics.counter_value t.rendezvous_c

type stats = {
  st_rendezvous : int;
  st_instructions : int array;
  st_calls : (string * int) list;
  st_checks_performed : int;
  st_checks_failed : int;
  st_input_bytes_replicated : int;
  st_output_writes_checked : int;
  st_signals_delivered : int;
  st_relaxed_checks : int;
}

let stats t =
  {
    st_rendezvous = Metrics.counter_value t.rendezvous_c;
    st_instructions =
      Array.map (fun v -> Cpu.instructions_retired v.Image.cpu) t.variants;
    st_calls = Metrics.counters_under t.metrics ~prefix:"monitor.calls.";
    st_checks_performed = Metrics.counter_value t.checks_performed;
    st_checks_failed = Metrics.counter_value t.checks_failed;
    st_input_bytes_replicated = Metrics.counter_value t.input_bytes_replicated_c;
    st_output_writes_checked = Metrics.counter_value t.output_writes_checked_c;
    st_signals_delivered = Metrics.counter_value t.signals_delivered_c;
    st_relaxed_checks = Metrics.counter_value t.relaxed_checks_c;
  }

let set_input_fault t f = t.input_fault <- f

let trace_session t = t.trace

let forensics t = t.forensics

let all_equal arr = Array.for_all (fun x -> x = arr.(0)) arr

(* The alarm raised as soon as checking fails; carries no resources. *)
exception Alarm_exn of Alarm.reason

(* A variant handed the kernel a bad pointer: equivalent to the fault
   the hardware would raise on copy_from_user. *)
exception Marshal_fault of { variant : int; fault : Cpu.fault }

(* Run a guest-memory access made on behalf of variant [i], turning a
   memory fault into that variant's [Marshal_fault]. *)
let marshal i f =
  try f ()
  with Memory.Fault { addr; access } ->
    raise (Marshal_fault { variant = i; fault = Cpu.Segfault { addr; access } })

(* Every equivalence check passes through here so the checks.performed /
   checks.failed pair stays consistent with the alarm stream. *)
let check t ~fail cond =
  Metrics.incr t.checks_performed;
  if not cond then begin
    Metrics.incr t.checks_failed;
    raise (Alarm_exn (fail ()))
  end

(* The check every rendezvous — full, deferred or hybrid — starts with:
   all variants are making the same call. *)
let check_numbers t numbers =
  check t ~fail:(fun () -> Alarm.Syscall_mismatch { numbers }) (all_equal numbers)

let uid_spec t i = t.variation.Variation.variants.(i).Variation.uid

(* FNV-1a, 32-bit: content digest for string-divergence diagnostics
   (never the raw bytes — they may hold secrets). *)
let fnv1a s =
  let h = ref 0x811C9DC5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xFFFFFFFF)
    s;
  !h

(* ------------------------------------------------------------------ *)
(* Argument canonicalization                                           *)
(* ------------------------------------------------------------------ *)

(* The canon_* checks write each variant's canonical value into the
   reused [canon_scratch] array (no allocation on the all-agree path);
   the scratch is only copied out when a mismatch alarm needs it. *)
let scratch_all_equal t =
  let scratch = t.canon_scratch in
  let ok = ref true in
  for i = 1 to Array.length scratch - 1 do
    if scratch.(i) <> scratch.(0) then ok := false
  done;
  !ok

let check_scratch t ~syscall ~index =
  check t
    ~fail:(fun () ->
      Alarm.Arg_mismatch { syscall; arg_index = index; values = Array.copy t.canon_scratch })
    (scratch_all_equal t)

(* Raw register argument [index] from each variant; must be identical. *)
let canon_int t ~raws ~syscall ~index =
  let scratch = t.canon_scratch in
  Array.iteri (fun i (r : Sysabi.raw) -> scratch.(i) <- r.Sysabi.args.(index)) raws;
  check_scratch t ~syscall ~index;
  scratch.(0)

(* UID argument: apply each variant's inverse reexpression, then check
   the canonical values agree (Section 3.5). *)
let canon_uid t ~raws ~syscall ~index =
  let scratch = t.canon_scratch in
  Array.iteri
    (fun i (r : Sysabi.raw) ->
      scratch.(i) <- (uid_spec t i).Reexpression.decode r.Sysabi.args.(index))
    raws;
  check_scratch t ~syscall ~index;
  scratch.(0)

(* Pointer argument: canonicalize to a segment offset per variant. *)
let canon_ptr t ~raws ~syscall ~index =
  let scratch = t.canon_scratch in
  Array.iteri
    (fun i (r : Sysabi.raw) ->
      let memory = t.variants.(i).Image.memory in
      scratch.(i) <- marshal i (fun () -> Memory.to_offset memory r.Sysabi.args.(index)))
    raws;
  check_scratch t ~syscall ~index;
  Array.map (fun (r : Sysabi.raw) -> r.Sysabi.args.(index)) raws

(* NUL-terminated string argument: contents must be identical. The
   failure diagnostic carries per-variant lengths and content digests
   so divergent contents are distinguishable from divergent lengths. *)
let canon_string t ~raws ~syscall ~index =
  let _ = canon_ptr t ~raws ~syscall ~index in
  let strings =
    Array.mapi
      (fun i (r : Sysabi.raw) ->
        let memory = t.variants.(i).Image.memory in
        marshal i (fun () -> Sysabi.read_string memory ~addr:r.Sysabi.args.(index)))
      raws
  in
  check t
    ~fail:(fun () ->
      Alarm.String_mismatch
        {
          syscall;
          arg_index = index;
          lengths = Array.map String.length strings;
          digests = Array.map fnv1a strings;
        })
    (all_equal strings);
  strings.(0)

let deliver t per_variant_results =
  Array.iteri
    (fun i result -> Sysabi.set_result t.variants.(i).Image.cpu result)
    per_variant_results

let deliver_same t result =
  Array.iter (fun v -> Sysabi.set_result v.Image.cpu result) t.variants

(* Copy kernel-produced bytes into each variant's buffer. *)
let copy_out t ~bufs chunks =
  Array.iteri
    (fun i buf ->
      let memory = t.variants.(i).Image.memory in
      marshal i (fun () -> Sysabi.write_bytes memory ~addr:buf chunks.(i)))
    bufs

(* Rendezvous breadcrumbs: a [Note] in the coordinator ring, formatted
   only when the flight recorder is on. Notes are made on the
   coordinating domain while every variant is parked, so the
   retired-total timestamp is mode-independent. *)
let note t ~ts syscall text =
  Trace.note t.trace_coord ~ts (fun () ->
      Printf.sprintf "[%s] %s" (Syscall.name syscall) (text ()))

(* ------------------------------------------------------------------ *)
(* Relaxed monitoring                                                  *)
(* ------------------------------------------------------------------ *)

(* The cc_eq .. cc_geq comparison on canonical values; shared between
   a variant's own result and the coordinator's note. *)
let cc_compute n a b =
  if n = Syscall.sys_cc_eq then a = b
  else if n = Syscall.sys_cc_neq then a <> b
  else if n = Syscall.sys_cc_lt then Word.lt_unsigned a b
  else if n = Syscall.sys_cc_leq then not (Word.lt_unsigned b a)
  else if n = Syscall.sys_cc_gt then Word.lt_unsigned b a
  else not (Word.lt_unsigned a b)

(* Execute a relaxed syscall locally for variant [i] and return the
   record the coordinator will cross-check later — the only code that
   executes a relaxed call. Runs on whichever domain owns variant [i]:
   its pinned domain during a release, the coordinator when it settles
   a position at which some variants are parked live. [cred] is the
   coordinator's snapshot of the kernel credentials (stable for the
   whole round — every credential mutation is a Sensitive call, which
   parks all variants first), and everything touched is
   variant-[i]-owned per the concurrency discipline. *)
let relaxed_call t i ~cred n =
  let cpu = t.variants.(i).Image.cpu in
  let raw = Sysabi.of_cpu cpu in
  let spec = uid_spec t i in
  let a0 = raw.Sysabi.args.(0) in
  let result, c0, c1 =
    if n = Syscall.sys_getuid then (spec.Reexpression.encode cred.Cred.ruid, 0, 0)
    else if n = Syscall.sys_geteuid then (spec.Reexpression.encode cred.Cred.euid, 0, 0)
    else if n = Syscall.sys_getgid then (spec.Reexpression.encode cred.Cred.rgid, 0, 0)
    else if n = Syscall.sys_getegid then (spec.Reexpression.encode cred.Cred.egid, 0, 0)
    else if n = Syscall.sys_uid_value then (a0, spec.Reexpression.decode a0, 0)
    else if n = Syscall.sys_cond_chk then (a0, a0, 0)
    else begin
      (* cc_eq .. cc_geq: decode both UID arguments with this variant's
         own inverse; the coordinator checks the canonical values agree
         across variants at flush time. *)
      let a = spec.Reexpression.decode a0 in
      let b = spec.Reexpression.decode raw.Sysabi.args.(1) in
      ((if cc_compute n a b then 1 else 0), a, b)
    end
  in
  (* Variant-ring recording, from the domain that owns variant [i]
     right now (never two at once). The canonical argument images and
     the result are deterministic, so sequential and parallel runs
     record the identical pair. *)
  (if Trace.enabled t.trace then begin
     let ring = t.trace_variants.(i) in
     let ts = Cpu.instructions_retired cpu in
     Trace.record ring ~ts (Trace.Syscall_enter { number = n; args = [| c0; c1 |] });
     Trace.record ring ~ts (Trace.Syscall_exit { number = n; result })
   end);
  Sysabi.set_result cpu result;
  {
    rc_number = n;
    rc_retired = Cpu.instructions_retired cpu;
    rc_a0 = a0;
    rc_c0 = c0;
    rc_c1 = c1;
  }

(* Cross-check one relaxed position — the only code that checks a
   relaxed call. [records] holds one record per variant, and the caller
   has already counted the rendezvous and checked that the syscall
   numbers agree. The per-call counter and the latency observation
   (from the retired counts the variants recorded at the call, so the
   histogram is identical to what lockstep execution would have
   measured) come first, then the argument checks and the note, so a
   divergent position raises the alarm class and payload the paper's
   eager per-call check defines (Table 2). Raises [Alarm_exn] on
   mismatch. *)
let flush_position t (records : relaxed_record array) =
  let syscall = records.(0).rc_number in
  let now = Array.fold_left (fun acc r -> acc + r.rc_retired) 0 records in
  if Trace.enabled t.trace then
    Trace.record t.trace_coord ~ts:now (Trace.Rendezvous { number = syscall; relaxed = true });
  Metrics.incr (call_counter t syscall);
  Metrics.observe
    (latency_histogram t syscall)
    (float_of_int (now - t.last_rendezvous_instr));
  t.last_rendezvous_instr <- now;
  let scratch = t.canon_scratch in
  (if
     syscall = Syscall.sys_getuid
     || syscall = Syscall.sys_geteuid
     || syscall = Syscall.sys_getgid
     || syscall = Syscall.sys_getegid
   then begin
     (* No arguments to check; perform the kernel read (and its metric)
        once, as leader, for the canonical value. *)
     let k = t.kernel in
     let canonical =
       if syscall = Syscall.sys_getuid then Kernel.sys_getuid k
       else if syscall = Syscall.sys_geteuid then Kernel.sys_geteuid k
       else if syscall = Syscall.sys_getgid then Kernel.sys_getgid k
       else Kernel.sys_getegid k
     in
     note t ~ts:now syscall (fun () ->
         Format.asprintf "%s -> canonical %a, reexpressed per variant"
           (Syscall.name syscall) Word.pp canonical)
   end
   else if syscall = Syscall.sys_uid_value then begin
     (* Table 2: compare across variants (post-inverse); each variant
        already got its own passed (still reexpressed) value back. *)
     Array.iteri (fun i r -> scratch.(i) <- r.rc_c0) records;
     check_scratch t ~syscall ~index:0;
     let canonical = scratch.(0) in
     note t ~ts:now syscall (fun () ->
         Format.asprintf "uid_value: canonical %a equivalent in all variants" Word.pp
           canonical)
   end
   else if syscall = Syscall.sys_cond_chk then begin
     (* Table 2: condition values are plain booleans, identical in all
        variants or the variants are taking different paths. *)
     let values = Array.map (fun r -> r.rc_a0) records in
     check t ~fail:(fun () -> Alarm.Cond_mismatch { values }) (all_equal values);
     note t ~ts:now syscall (fun () ->
         Printf.sprintf "cond_chk(%d): paths agree" values.(0))
   end
   else begin
     (* cc_eq .. cc_geq: both UID arguments are decoded and checked;
        the comparison is the same on the agreed canonical values. *)
     Array.iteri (fun i r -> scratch.(i) <- r.rc_c0) records;
     check_scratch t ~syscall ~index:0;
     let a = scratch.(0) in
     Array.iteri (fun i r -> scratch.(i) <- r.rc_c1) records;
     check_scratch t ~syscall ~index:1;
     let b = scratch.(0) in
     note t ~ts:now syscall (fun () ->
         Format.asprintf "%s(%a, %a) = %b on canonical values" (Syscall.name syscall)
           Word.pp a Word.pp b (cc_compute syscall a b))
   end);
  Metrics.incr t.relaxed_checks_c;
  t.flush_batch <- t.flush_batch + 1

(* Flush every complete position: while all queues are non-empty, pop
   one record per variant and cross-check them. Records are popped
   before the checks can raise, so an alarming position is consumed —
   a re-run does not re-check it (the variants have long since moved
   past it). *)
let flush_prefix t =
  let rec go () =
    if Array.for_all (fun q -> not (Queue.is_empty q)) t.deferred then begin
      let records = Array.map Queue.pop t.deferred in
      Metrics.incr t.rendezvous_c;
      check_numbers t (Array.map (fun r -> r.rc_number) records);
      flush_position t records;
      go ()
    end
  in
  match go () with () -> Ok () | exception Alarm_exn reason -> Error reason

(* A flush boundary (a full rendezvous, or [run] returning): the batch
   of relaxed checks settled since the previous boundary is observed
   into the histogram. *)
let flush_boundary t =
  if t.flush_batch > 0 then begin
    Metrics.observe t.deferred_batch_h (float_of_int t.flush_batch);
    (if Trace.enabled t.trace then
       Trace.record t.trace_coord ~ts:(instructions_retired t)
         (Trace.Deferred_flush { batch = t.flush_batch }));
    t.flush_batch <- 0
  end

(* ------------------------------------------------------------------ *)
(* Rendezvous dispatch                                                 *)
(* ------------------------------------------------------------------ *)

(* The full rendezvous at a Sensitive (or unknown) call: the
   coordinator checks the canonical arguments and performs the kernel
   call once as leader. Returns [None] to keep running, [Some outcome]
   to stop. [now_instr] is the caller's already-computed total of
   retired instructions, so the dispatch path does not re-fold over the
   variants. *)
let dispatch t ~now_instr (raws : Sysabi.raw array) =
  let syscall = raws.(0).Sysabi.number in
  if Trace.enabled t.trace then
    Trace.record t.trace_coord ~ts:now_instr
      (Trace.Rendezvous { number = syscall; relaxed = false });
  Metrics.incr (call_counter t syscall);
  (* Per-syscall rendezvous latency, measured in retired guest
     instructions (all variants) since the previous rendezvous. *)
  Metrics.observe
    (latency_histogram t syscall)
    (float_of_int (now_instr - t.last_rendezvous_instr));
  t.last_rendezvous_instr <- now_instr;
  let note = note t ~ts:now_instr syscall in
  let k = t.kernel in
  let continue_ = None in
  match syscall with
  | n when n = Syscall.sys_exit ->
    let statuses = Array.map (fun (r : Sysabi.raw) -> Word.to_signed r.Sysabi.args.(0)) raws in
    check t ~fail:(fun () -> Alarm.Exit_mismatch { statuses }) (all_equal statuses);
    note (fun () -> Printf.sprintf "exit(%d) checked across variants" statuses.(0));
    ignore (Kernel.sys_exit k ~status:statuses.(0));
    Some (Exited statuses.(0))
  | n when n = Syscall.sys_read ->
    let fd = Word.to_signed (canon_int t ~raws ~syscall ~index:0) in
    (* For unshared descriptors each variant performs its own read on
       its own diversified file (Section 3.4), so buffer pointers are
       not required to canonicalize to the same offset — content
       lengths differ legitimately, and so may derived pointers. *)
    let bufs =
      if Kernel.fd_is_unshared k ~fd then
        Array.map (fun (r : Sysabi.raw) -> r.Sysabi.args.(1)) raws
      else canon_ptr t ~raws ~syscall ~index:1
    in
    let len = Word.to_signed (canon_int t ~raws ~syscall ~index:2) in
    let count, data = Kernel.sys_read k ~fd ~len in
    (match data with
    | Kernel.Shared_data bytes -> (
      Metrics.add t.input_bytes_replicated_c (max 0 count);
      match t.input_fault with
      | Some perturb when count > 0 ->
        (* Fault injection: each variant receives a possibly-perturbed
           copy of the replicated input, with its own byte count. *)
        note (fun () ->
            Printf.sprintf "read(%d): %d bytes replicated with fault injection" fd count);
        let chunks =
          Array.init (Array.length t.variants) (fun i -> perturb ~variant:i bytes)
        in
        copy_out t ~bufs chunks;
        deliver t (Array.map (fun c -> Word.mask (String.length c)) chunks)
      | Some _ | None ->
        note (fun () ->
            Printf.sprintf "read(%d): performed once, %d bytes replicated to all variants"
              fd count);
        if count > 0 then copy_out t ~bufs (Array.make (Array.length bufs) bytes);
        deliver_same t (Word.of_signed count))
    | Kernel.Per_variant chunks ->
      note (fun () ->
          Printf.sprintf "read(%d): unshared file, each variant reads its own copy" fd);
      copy_out t ~bufs chunks;
      deliver t (Array.map (fun c -> Word.mask (String.length c)) chunks));
    continue_
  | n when n = Syscall.sys_write ->
    let fd = Word.to_signed (canon_int t ~raws ~syscall ~index:0) in
    let unshared = Kernel.fd_is_unshared k ~fd in
    let bufs =
      if unshared then Array.map (fun (r : Sysabi.raw) -> r.Sysabi.args.(1)) raws
      else canon_ptr t ~raws ~syscall ~index:1
    in
    let lens =
      if unshared then
        Array.map (fun (r : Sysabi.raw) -> Word.to_signed r.Sysabi.args.(2)) raws
      else
        Array.make (Array.length raws) (Word.to_signed (canon_int t ~raws ~syscall ~index:2))
    in
    let chunks =
      Array.mapi
        (fun i buf ->
          let memory = t.variants.(i).Image.memory in
          marshal i (fun () -> Sysabi.read_bytes memory ~addr:buf ~len:lens.(i)))
        bufs
    in
    if unshared then begin
      note (fun () -> "write: unshared file, each variant writes its own copy");
      deliver_same t (Word.of_signed (Kernel.sys_write k ~fd ~data:(Kernel.Per_variant chunks)))
    end
    else begin
      (if not (all_equal chunks) then
         Logs.warn ~src:Nv_util.Logsrc.monitor (fun m ->
             m "output divergence on fd %d" fd));
      check t
        ~fail:(fun () -> Alarm.Output_mismatch { syscall; fd })
        (all_equal chunks);
      Metrics.incr t.output_writes_checked_c;
      note (fun () -> Printf.sprintf "write(%d): bytes checked equal, performed once" fd);
      deliver_same t (Word.of_signed (Kernel.sys_write k ~fd ~data:(Kernel.Shared_data chunks.(0))))
    end;
    continue_
  | n when n = Syscall.sys_open ->
    let path = canon_string t ~raws ~syscall ~index:0 in
    let flags = Word.to_signed (canon_int t ~raws ~syscall ~index:1) in
    note (fun () ->
        if Kernel.is_unshared k path then
          Printf.sprintf "open(%S): unshared, variant i gets %s-i" path path
        else Printf.sprintf "open(%S): shared descriptor" path);
    deliver_same t (Word.of_signed (Kernel.sys_open k ~path ~flags));
    continue_
  | n when n = Syscall.sys_close ->
    let fd = Word.to_signed (canon_int t ~raws ~syscall ~index:0) in
    deliver_same t (Word.of_signed (Kernel.sys_close k ~fd));
    continue_
  | n when n = Syscall.sys_accept ->
    (* The listening-fd argument is checked across variants like any
       other descriptor argument — a corrupted fd in one variant is a
       divergence, not something to silently ignore. *)
    let listen_fd = Word.to_signed (canon_int t ~raws ~syscall ~index:0) in
    let fd = Kernel.sys_accept k ~fd:listen_fd in
    if fd = Kernel.eagain then begin
      Array.iter (fun v -> Sysabi.retry_syscall v.Image.cpu) t.variants;
      Some Blocked_on_accept
    end
    else begin
      note (fun () -> Printf.sprintf "accept(%d) -> fd %d for all variants" listen_fd fd);
      deliver_same t (Word.of_signed fd);
      continue_
    end
  | n when n = Syscall.sys_setuid || n = Syscall.sys_seteuid || n = Syscall.sys_setgid
           || n = Syscall.sys_setegid ->
    let canonical = canon_uid t ~raws ~syscall ~index:0 in
    let result =
      if n = Syscall.sys_setuid then Kernel.sys_setuid k ~uid:canonical
      else if n = Syscall.sys_seteuid then Kernel.sys_seteuid k ~uid:canonical
      else if n = Syscall.sys_setgid then Kernel.sys_setgid k ~gid:canonical
      else Kernel.sys_setegid k ~gid:canonical
    in
    note (fun () ->
        Format.asprintf "%s: R_i^-1 applied, canonical %a agreed, performed once"
          (Syscall.name n) Word.pp canonical);
    deliver_same t (Word.of_signed result);
    continue_
  | _ ->
    note (fun () -> "unknown syscall: -1 to all variants");
    deliver_same t (Word.of_signed (-1));
    continue_

(* ------------------------------------------------------------------ *)
(* Asynchronous event delivery                                         *)
(* ------------------------------------------------------------------ *)

(* The handler "returns" by jumping to this unmapped, recognizable
   address; the resulting execute fault marks completion. *)
let signal_return_address = 0xFFFFFFF4

let post_signal t ~handler ~mode =
  if t.signal <> None then Error "a signal is already pending"
  else if
    Array.exists
      (fun v -> not (List.mem_assoc handler v.Image.layout.Image.abs_symbols))
      t.variants
  then Error (Printf.sprintf "handler %S is not defined in every variant" handler)
  else begin
    t.signal <-
      Some
        {
          handler;
          mode;
          baselines = Array.map (fun v -> Cpu.instructions_retired v.Image.cpu) t.variants;
          delivered = Array.map (fun _ -> false) t.variants;
        };
    Ok ()
  end

let signal_pending t = t.signal <> None

(* Run the handler to completion in variant [i] as a synchronous
   subroutine, preserving the interrupted context. *)
let deliver_signal t i ~handler =
  let v = t.variants.(i) in
  let cpu = v.Image.cpu in
  (* Recorded at the injection point, before the handler runs: a
     failed delivery still leaves its attempt in the flight recorder.
     Writes variant [i]'s ring from whichever domain owns the variant
     at the delivery site (its own for Immediate, the coordinator for
     At_rendezvous — where every variant is parked). *)
  (if Trace.enabled t.trace then
     let immediate =
       match t.signal with Some { mode = Immediate _; _ } -> true | Some _ | None -> false
     in
     Trace.record t.trace_variants.(i) ~ts:(Cpu.instructions_retired cpu)
       (Trace.Signal { handler; immediate }));
  let failed detail =
    raise (Alarm_exn (Alarm.Signal_delivery_failed { variant = i; detail }))
  in
  let saved_regs = Array.init 16 (Cpu.reg cpu) in
  let saved_pc = Cpu.pc cpu in
  (match
     let sp = Word.sub (Cpu.reg cpu Cpu.sp_index) 4 in
     Memory.store_word v.Image.memory sp signal_return_address;
     Cpu.set_reg cpu Cpu.sp_index sp;
     Cpu.set_pc cpu (Image.abs_symbol v handler)
   with
  | () -> ()
  | exception Memory.Fault _ -> failed "no stack space for the handler frame"
  | exception Not_found -> failed "handler symbol vanished");
  (match Cpu.run cpu ~fuel:1_000_000 with
  | Cpu.Trapped (Cpu.Fault_trap (Cpu.Segfault { addr; access = Memory.Execute }))
    when addr = signal_return_address ->
    ()
  | Cpu.Trapped Cpu.Syscall_trap -> failed "handler made a system call"
  | Cpu.Trapped trap -> failed (Format.asprintf "handler trapped: %a" Cpu.pp_trap trap)
  | Cpu.Out_of_fuel -> failed "handler did not terminate");
  Array.iteri (fun r value -> Cpu.set_reg cpu r value) saved_regs;
  Cpu.set_pc cpu saved_pc

let clear_if_fully_delivered t =
  match t.signal with
  | Some s when Array.for_all Fun.id s.delivered -> t.signal <- None
  | Some _ | None -> ()

(* Run variant [i] to its next trap, honouring a pending Immediate
   signal: once the variant crosses its delivery threshold, the handler
   is injected and execution continues. Domain-safe per the discipline
   above: reads [t.signal] (stable across a quantum — only the
   coordinator writes it, between joins), writes only variant-[i]
   state and the variant's own [delivered.(i)] slot. *)
let run_variant_to_trap t i ~fuel =
  let cpu = t.variants.(i).Image.cpu in
  let rec go fuel =
    if fuel <= 0 then Cpu.Out_of_fuel
    else begin
      match t.signal with
      | Some ({ mode = Immediate { after_instructions }; _ } as s)
        when not s.delivered.(i) -> (
        let due = s.baselines.(i) + after_instructions - Cpu.instructions_retired cpu in
        if due <= 0 then begin
          deliver_signal t i ~handler:s.handler;
          s.delivered.(i) <- true;
          go fuel
        end
        else begin
          match Cpu.run cpu ~fuel:(min due fuel) with
          | Cpu.Out_of_fuel when due <= fuel ->
            (* Reached the delivery point without trapping. *)
            deliver_signal t i ~handler:s.handler;
            s.delivered.(i) <- true;
            go (fuel - due)
          | outcome -> outcome
        end)
      | Some _ | None -> Cpu.run cpu ~fuel
    end
  in
  go fuel

(* Release variant [i] for a multi-call stretch: run to the next trap,
   execute relaxed syscalls locally (posting a record through [emit]
   and continuing), and stop with an [arrival] at the first sensitive
   call, fault, halt, fuel exhaustion or exception. [fuel] is the whole
   round budget, an engine-defined cutoff identical in both execution
   modes (so where a variant stops — and therefore every downstream
   check — is mode-independent). Runs on the variant's domain in
   parallel mode; everything touched is variant-[i]-owned. *)
let run_variant_release t i ~fuel ~cred ~relaxed_ok ~emit =
  let cpu = t.variants.(i).Image.cpu in
  let start = Cpu.instructions_retired cpu in
  if Trace.enabled t.trace then
    Trace.record t.trace_variants.(i) ~ts:start Trace.Quantum_begin;
  let rec go () =
    let left = fuel - (Cpu.instructions_retired cpu - start) in
    if left <= 0 then A_fuel
    else begin
      match run_variant_to_trap t i ~fuel:left with
      | Cpu.Out_of_fuel -> A_fuel
      | Cpu.Trapped Cpu.Halt_trap -> A_halt
      | Cpu.Trapped (Cpu.Fault_trap fault) -> A_fault fault
      | Cpu.Trapped Cpu.Syscall_trap ->
        let n = (Sysabi.of_cpu cpu).Sysabi.number in
        if relaxed_ok && Syscall.is_relaxed n then begin
          emit (relaxed_call t i ~cred n);
          go ()
        end
        else A_syscall
      | exception e -> A_raised (e, Printexc.get_raw_backtrace ())
    end
  in
  let arrival = go () in
  (if Trace.enabled t.trace then
     let retired = Cpu.instructions_retired cpu in
     Trace.record t.trace_variants.(i) ~ts:retired (Trace.Quantum_end { retired }));
  arrival

(* ------------------------------------------------------------------ *)
(* Pinned-domain engine                                                *)
(* ------------------------------------------------------------------ *)

(* Spin-then-park doorbell. The waiter spins briefly on its poll, then
   publishes [asleep] and re-polls before blocking; a ringer makes its
   state visible (an SPSC push is an [Atomic] store) and then reads
   [asleep]. Sequential consistency of the two atomics closes the
   sleep/ring race: if the ringer misses [asleep], the waiter's re-poll
   is ordered after the ringer's push and sees the state change. *)
type doorbell = {
  db_mutex : Mutex.t;
  db_cond : Condition.t;
  db_asleep : bool Atomic.t;
}

let doorbell () =
  { db_mutex = Mutex.create (); db_cond = Condition.create (); db_asleep = Atomic.make false }

let bell_ring b =
  if Atomic.get b.db_asleep then begin
    Mutex.lock b.db_mutex;
    Condition.broadcast b.db_cond;
    Mutex.unlock b.db_mutex
  end

let bell_spins = 128

let bell_wait b poll =
  let rec spin k =
    if poll () then true
    else if k = 0 then false
    else begin
      Domain.cpu_relax ();
      spin (k - 1)
    end
  in
  if not (spin bell_spins) then begin
    Mutex.lock b.db_mutex;
    Atomic.set b.db_asleep true;
    while not (poll ()) do
      Condition.wait b.db_cond b.db_mutex
    done;
    Atomic.set b.db_asleep false;
    Mutex.unlock b.db_mutex
  end

(* Per-variant command/event channel between the coordinator and the
   variant's pinned domain. The command ring never holds more than one
   release plus the final stop; the event ring absorbs a burst of
   relaxed records before the producer has to wake the coordinator. *)
type cmd =
  | C_release of { fuel : int; cred : Cred.t; relaxed_ok : bool }
  | C_stop

type evt = E_record of relaxed_record | E_arrival of arrival

type link = {
  lk_cmd : cmd Spsc.t;
  lk_evt : evt Spsc.t;
  lk_bell : doorbell;  (* the variant domain parks here *)
}

let evt_ring_capacity = 512

(* Body of one pinned variant domain: park until a command arrives,
   run the release, stream records and the final arrival back, repeat
   until stopped. The only monitor state it touches is variant-[i]'s.

   Wakeup discipline: the coordinator only needs to hear about the
   {e arrival} (the round cannot end before it) and about back-pressure
   (a full event ring it must drain). A successfully-pushed record is
   silent — the coordinator will find it when the arrival wakes it —
   which keeps the hot path free of futex traffic. *)
let variant_domain t i link coord_bell =
  let push ~urgent evt =
    let rec go () =
      if Spsc.try_push link.lk_evt evt then begin
        if urgent then bell_ring coord_bell
      end
      else begin
        (* Ring full: make sure the consumer is awake, then park until
           it drains a slot. *)
        bell_ring coord_bell;
        bell_wait link.lk_bell (fun () ->
            Spsc.length link.lk_evt < Spsc.capacity link.lk_evt);
        go ()
      end
    in
    go ()
  in
  let rec serve () =
    bell_wait link.lk_bell (fun () -> Spsc.length link.lk_cmd > 0);
    match Spsc.try_pop link.lk_cmd with
    | None -> serve ()
    | Some C_stop -> ()
    | Some (C_release { fuel; cred; relaxed_ok }) ->
      let emit rc = push ~urgent:false (E_record rc) in
      push ~urgent:true (E_arrival (run_variant_release t i ~fuel ~cred ~relaxed_ok ~emit));
      serve ()
  in
  serve ()

(* Coordinator side of one round: release the given variants on their
   domains, then drain their event rings — records into the deferred
   queues in production order, arrivals into [t.arrivals] — until every
   released variant has arrived. Popping a variant's arrival happens
   strictly after all its records (SPSC FIFO), so the queues are
   complete when the round ends. *)
let run_round_parallel t links coord_bell ~released ~fuel ~cred ~relaxed_ok =
  let n = Array.length links in
  let waiting = Array.make n false in
  let pending = ref 0 in
  Array.iter
    (fun i ->
      waiting.(i) <- true;
      incr pending;
      if not (Spsc.try_push links.(i).lk_cmd (C_release { fuel; cred; relaxed_ok })) then
        assert false;
      bell_ring links.(i).lk_bell)
    released;
  let poll () =
    let any = ref false in
    for i = 0 to n - 1 do
      if waiting.(i) && Spsc.length links.(i).lk_evt > 0 then any := true
    done;
    !any
  in
  while !pending > 0 do
    let progress = ref false in
    for i = 0 to n - 1 do
      if waiting.(i) then begin
        let drained = ref false in
        let continue_ = ref true in
        while !continue_ do
          match Spsc.try_pop links.(i).lk_evt with
          | None -> continue_ := false
          | Some (E_record rc) ->
            drained := true;
            Queue.add rc t.deferred.(i)
          | Some (E_arrival a) ->
            drained := true;
            t.arrivals.(i) <- Some a;
            waiting.(i) <- false;
            decr pending;
            continue_ := false
        done;
        (* A producer parks only on a full ring, but the ring can fill
           while this drain runs, so a wake may be owed after any
           drain; [bell_ring] is one atomic load unless it is. *)
        if !drained then begin
          progress := true;
          bell_ring links.(i).lk_bell
        end
      end
    done;
    if !pending > 0 && not !progress then bell_wait coord_bell poll
  done

(* Spawn one pinned domain per variant for the duration of [f]; domains
   are joined on every exit path. Domain spawn/join is per-[run], not
   per-rendezvous — the old engine paid a pool handoff per syscall. *)
let with_engine t f =
  if not t.parallel then f None
  else begin
    let coord_bell = doorbell () in
    let links =
      Array.map
        (fun _ ->
          {
            lk_cmd = Spsc.create ~capacity:2;
            lk_evt = Spsc.create ~capacity:evt_ring_capacity;
            lk_bell = doorbell ();
          })
        t.variants
    in
    let domains =
      Array.mapi
        (fun i link -> Domain.spawn (fun () -> variant_domain t i link coord_bell))
        links
    in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun link ->
            if not (Spsc.try_push link.lk_cmd C_stop) then assert false;
            bell_ring link.lk_bell)
          links;
        Array.iter Domain.join domains)
      (fun () -> f (Some (links, coord_bell)))
  end

(* ------------------------------------------------------------------ *)
(* Lockstep execution                                                  *)
(* ------------------------------------------------------------------ *)

(* How many trailing events of each ring a forensics bundle keeps. *)
let forensics_tail = 32

(* The alarm post-mortem: alarm class and payload, rendezvous count,
   the canonical kernel credentials plus each variant's reexpressed
   view of them, every variant's register file / pc / retired count,
   and the tail of every flight-recorder ring. Built on the
   coordinator; in parallel mode every variant domain is parked when
   an alarm is classified, and its arrival was popped from the SPSC
   ring after its last ring write, so reading the rings here is
   ordered. *)
let build_forensics t reason =
  let open Metrics.Json in
  let num i = Num (float_of_int i) in
  let hex v = Str (Printf.sprintf "0x%08X" v) in
  let cred = Kernel.cred t.kernel in
  let cred_json =
    Obj
      [
        ("ruid", num cred.Cred.ruid);
        ("euid", num cred.Cred.euid);
        ("rgid", num cred.Cred.rgid);
        ("egid", num cred.Cred.egid);
      ]
  in
  let variant_json i v =
    let cpu = v.Image.cpu in
    let spec = uid_spec t i in
    Obj
      [
        ("variant", num i);
        ("pc", hex (Cpu.pc cpu));
        ("instructions_retired", num (Cpu.instructions_retired cpu));
        ("registers", List (List.init 16 (fun r -> hex (Cpu.reg cpu r))));
        ( "credentials_reexpressed",
          Obj
            [
              ("ruid", num (spec.Reexpression.encode cred.Cred.ruid));
              ("euid", num (spec.Reexpression.encode cred.Cred.euid));
            ] );
      ]
  in
  Obj
    [
      ("alarm", Alarm.to_json reason);
      ("rendezvous", num (Metrics.counter_value t.rendezvous_c));
      ("instructions_retired", num (instructions_retired t));
      ("credentials", cred_json);
      ("variants", List (Array.to_list (Array.mapi variant_json t.variants)));
      ( "rings",
        List
          (List.map
             (Trace.ring_events_json ~syscall_name:Syscall.name ~last:forensics_tail)
             (Trace.rings t.trace)) );
    ]

(* Every alarm leaving [run] passes through here so the per-reason
   alarm counters and the forensics post-mortem cover all production
   sites. *)
let alarmed t reason =
  Metrics.incr (Metrics.counter t.alarms_scope (Alarm.short_label reason));
  if Trace.enabled t.trace then
    Trace.record t.trace_coord ~ts:(instructions_retired t)
      (Trace.Alarm { label = Alarm.short_label reason });
  t.forensics <- Some (build_forensics t reason);
  Logs.info ~src:Nv_util.Logsrc.monitor (fun m -> m "alarm: %a" Alarm.pp reason);
  Alarm reason

(* The run loop: rounds of released execution separated by coordinator
   turns. Per round, every variant without a parked arrival is released
   for a multi-call stretch (inline when sequential, on its pinned
   domain when parallel — the protocol is otherwise identical, which is
   what makes seq==par bit-determinism hold); the coordinator then
   cross-checks every complete deferred position, handles exceptional
   arrivals in deterministic (lowest-index) order, and performs a full
   rendezvous once every variant is parked live at a sensitive call.

   [A_syscall] arrivals persist across [run] calls — the parked call
   has not been dispatched, so the variant must not be re-released over
   it; all other arrivals are transient. *)
let run ?(fuel = 50_000_000) t =
  let deadline = instructions_retired t + fuel in
  let n = Array.length t.variants in
  let finish outcome =
    flush_boundary t;
    if Trace.enabled t.trace then Trace.publish t.trace t.metrics;
    outcome
  in
  with_engine t @@ fun engine ->
  let rec loop () =
    let remaining = deadline - instructions_retired t in
    if remaining <= 0 then finish Out_of_fuel
    else begin
      (* Round parameters, fixed by the coordinator before any variant
         moves: identical in both modes and stable for the round. While
         an [At_rendezvous] signal is pending, relaxation is off — every
         trap is an arrival, so the delivery point is a full rendezvous
         in both modes. *)
      let relaxed_ok =
        match t.signal with Some { mode = At_rendezvous; _ } -> false | Some _ | None -> true
      in
      let cred = Kernel.cred t.kernel in
      (* Snapshot the Immediate-delivery flags so deliveries performed
         inside the round can be counted after it. *)
      let delivered_before =
        match t.signal with Some s -> Array.copy s.delivered | None -> [||]
      in
      (match engine with
      | None ->
        for i = 0 to n - 1 do
          if t.arrivals.(i) = None then
            t.arrivals.(i) <-
              Some
                (run_variant_release t i ~fuel:remaining ~cred ~relaxed_ok
                   ~emit:(fun rc -> Queue.add rc t.deferred.(i)))
        done
      | Some (links, coord_bell) ->
        let released = ref [] in
        for i = n - 1 downto 0 do
          if t.arrivals.(i) = None then released := i :: !released
        done;
        run_round_parallel t links coord_bell ~released:(Array.of_list !released)
          ~fuel:remaining ~cred ~relaxed_ok);
      (* Coordinator-side signal bookkeeping for this round. *)
      (match t.signal with
      | Some s ->
        Array.iteri
          (fun i delivered ->
            if delivered && not delivered_before.(i) then
              Metrics.incr t.signals_delivered_c)
          s.delivered;
        clear_if_fully_delivered t
      | None -> ());
      let view =
        Array.map (function Some a -> a | None -> assert false) t.arrivals
      in
      for i = 0 to n - 1 do
        match t.arrivals.(i) with
        | Some A_syscall -> ()
        | Some _ | None -> t.arrivals.(i) <- None
      done;
      (* Settle every complete deferred position first: checks the
         variants already ran past happen before this round's failure
         is reported, exactly as lockstep execution would have ordered
         them. *)
      match flush_prefix t with
      | Error reason -> finish (alarmed t reason)
      | Ok () -> (
        (* Deterministic failure order: the lowest variant index wins,
           regardless of which domain finished first. *)
        let first_raised = ref None in
        Array.iter
          (fun a ->
            match (a, !first_raised) with
            | (A_raised (e, bt), None) -> first_raised := Some (e, bt)
            | _ -> ())
          view;
        match !first_raised with
        | Some (Alarm_exn reason, _) -> finish (alarmed t reason)
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None ->
          if Array.exists (function A_fuel -> true | _ -> false) view then
            finish Out_of_fuel
          else begin
            (* Faults and halts are alarm states. *)
            let alarm = ref None in
            Array.iteri
              (fun i a ->
                if !alarm = None then begin
                  match a with
                  | A_fault fault ->
                    alarm := Some (Alarm.Variant_fault { variant = i; fault })
                  | A_halt -> alarm := Some (Alarm.Variant_halted { variant = i })
                  | A_syscall | A_fuel | A_raised _ -> ()
                end)
              view;
            match !alarm with
            | Some reason -> finish (alarmed t reason)
            | None -> (
              (* Every variant is parked at a syscall. Either every queue
                 is flushed and every variant is parked live at its next
                 call (a full rendezvous), or some variants recorded
                 their next call and the rest are parked live at theirs
                 (a hybrid position: the flush drained every
                 all-recorded position, so at least one queue is empty).
                 The per-variant syscall numbers come from the record
                 fronts or the live trap state. *)
              let hybrid = Array.exists (fun q -> not (Queue.is_empty q)) t.deferred in
              if not hybrid then flush_boundary t;
              Metrics.incr t.rendezvous_c;
              match
                (* Synchronized signal delivery at a full rendezvous:
                   every variant is parked at an equivalent point
                   (trapped, pc already past the syscall instruction,
                   trap context preserved by the synchronous handler
                   run), so handlers execute in lockstep and the
                   rendezvous then proceeds normally. *)
                (match t.signal with
                | Some ({ mode = At_rendezvous; _ } as s) when not hybrid ->
                  Array.iteri
                    (fun i _ ->
                      if not s.delivered.(i) then begin
                        deliver_signal t i ~handler:s.handler;
                        s.delivered.(i) <- true;
                        Metrics.incr t.signals_delivered_c
                      end)
                    t.variants;
                  clear_if_fully_delivered t
                | Some _ | None -> ());
                let raws = Array.map (fun v -> Sysabi.of_cpu v.Image.cpu) t.variants in
                let numbers =
                  Array.mapi
                    (fun i q ->
                      match Queue.peek_opt q with
                      | Some rc -> rc.rc_number
                      | None -> raws.(i).Sysabi.number)
                    t.deferred
                in
                check_numbers t numbers;
                if Syscall.is_relaxed numbers.(0) then begin
                  (* A relaxed position: always so at a hybrid one
                     (records only hold relaxed numbers), and at a full
                     rendezvous only while an [At_rendezvous] signal
                     kept relaxation off. The live variants execute
                     their call here on the coordinator and the position
                     settles like any deferred one. *)
                  flush_position t
                    (Array.mapi
                       (fun i q ->
                         match Queue.take_opt q with
                         | Some rc -> rc
                         | None ->
                           t.arrivals.(i) <- None;
                           relaxed_call t i ~cred numbers.(0))
                       t.deferred);
                  None
                end
                else begin
                  let outcome = dispatch t ~now_instr:(instructions_retired t) raws in
                  Array.fill t.arrivals 0 n None;
                  outcome
                end
              with
              | None -> loop ()
              | Some outcome -> finish outcome
              | exception Alarm_exn reason -> finish (alarmed t reason)
              | exception Marshal_fault { variant; fault } ->
                finish (alarmed t (Alarm.Variant_fault { variant; fault })))
          end)
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_images : Image.snapshot array;
  snap_kernel : Kernel.snapshot;
}

let snapshot t =
  {
    snap_images = Array.map Image.snapshot t.variants;
    snap_kernel = Kernel.snapshot t.kernel;
  }

let restore t snap =
  Array.iteri (fun i s -> Image.restore t.variants.(i) s) snap.snap_images;
  let dropped = Kernel.restore t.kernel snap.snap_kernel in
  (* A pending signal references pre-rollback execution baselines; it
     cannot survive the rollback. *)
  t.signal <- None;
  (* The relaxed-engine state references execution the rollback just
     erased: drain the deferred queues, clear every parked arrival and
     reset the batch accumulator so the restored monitor re-runs from
     the checkpoint with no residue. (Supervisor checkpoints are taken
     at entry and at [Blocked_on_accept] — both full-rendezvous states
     where the queues are empty and no arrival is parked — so nothing
     checkable is lost.) *)
  Array.iter Queue.clear t.deferred;
  Array.fill t.arrivals 0 (Array.length t.arrivals) None;
  t.flush_batch <- 0;
  (* The retired-instruction totals just jumped backwards with the CPU
     restore; re-anchor the latency baseline so the next rendezvous
     does not observe a negative interval. *)
  t.last_rendezvous_instr <- instructions_retired t;
  dropped
