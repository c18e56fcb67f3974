(** The N-variant monitor: syscall-boundary rendezvous, input
    replication, equivalence checking, and reexpression at the kernel
    interface.

    This is the OCaml analogue of the paper's modified Linux kernel
    (Section 3.1): variants are synchronized at system calls; the
    monitor checks that all variants make the same call with equivalent
    (canonicalized) arguments, performs input system calls once and
    replicates the result, performs output system calls once after
    checking the variants agree on the bytes, applies [R_i^-1] to
    UID-typed arguments before checking and the kernel call, applies
    [R_i] to UID-typed results per variant, and implements the Table 2
    detection system calls. Unshared-file I/O is performed per variant
    by the kernel.

    Canonicalization (Section 2.1's normal-equivalence function):
    pointer arguments are compared as segment-relative offsets, UID
    arguments as [R_i^-1] images. *)

type outcome =
  | Exited of int
  | Alarm of Alarm.reason
  | Blocked_on_accept
      (** every variant is parked on [accept]; connect a client and
          call {!run} again *)
  | Out_of_fuel

type t

val create :
  ?metrics:Nv_util.Metrics.t ->
  ?parallel:bool ->
  ?engine:Nv_vm.Memory.engine ->
  ?segment_size:int ->
  ?stack_size:int ->
  kernel:Nv_os.Kernel.t ->
  variation:Variation.t ->
  Nv_vm.Image.t array ->
  t
(** [create ~kernel ~variation images] loads [images.(i)] according to
    [variation.variants.(i)] (base, tag) and registers the variation's
    unshared paths with the kernel. [images] must have exactly one
    image per variant (pass the same image several times for
    non-data-diversity variations); the kernel must have been created
    with a matching [~variants] count. Default segment size 1 MiB.
    [metrics] is the registry the monitor reports into; by default it
    shares the kernel's, so one registry covers the whole system.

    [parallel] selects domain-parallel variant execution: for the
    duration of each {!run} call every variant is pinned to its own
    long-lived domain, communicating with the coordinator over bounded
    lock-free SPSC rings ({!Nv_util.Spsc}) — no pool handoff or join
    per rendezvous. Parallel mode is bit-deterministic — identical
    outcomes, alarms, final registers/memory, and metric values as
    sequential mode (enforced by [test/test_parallel.ml]). Defaults to
    the [NV_PARALLEL] environment variable
    ({!Nv_util.Dompool.env_default}).

    [engine] pins every variant segment's execution tier
    ({!Nv_vm.Memory.engine}); when omitted, segments keep their
    creation default ([NV_ENGINE] or the block compiler, see
    {!Nv_vm.Memory.default_engine}). *)

val kernel : t -> Nv_os.Kernel.t

val parallel : t -> bool
(** Whether {!run} pins each variant to its own domain. *)

(** Size of the per-syscall-number metric-handle fast path; every
    [Nv_os.Syscall] number must stay below this. *)
val syscall_slots : int
val variation : t -> Variation.t
val variant_count : t -> int

val loaded : t -> int -> Nv_vm.Image.loaded
(** The loaded instance of variant [i] (used by attack payload
    builders to resolve symbol addresses). *)

val run : ?fuel:int -> t -> outcome
(** Execute until exit, alarm, accept-block, or the fuel budget (total
    guest instructions across all variants, default 50 million) is
    exhausted. Resumable after [Blocked_on_accept].

    Execution uses relaxed monitoring (in both sequential and parallel
    mode, so their behaviour stays identical): {e sensitive} syscalls
    ({!Nv_os.Syscall.sensitivity}) are full rendezvous points — every
    variant arrives, canonical arguments are compared, and the
    coordinator performs the kernel call once as the leader,
    replicating results — while {e relaxed} calls (register-only
    credential reads and the Table 2 detection calls) are executed
    locally by each variant, which posts a canonicalized record and
    continues without waiting. The coordinator cross-checks the
    accumulated records at the next rendezvous, raising the same alarm
    classes and payloads, in the same order, as an eager per-call check
    would have. A relaxed call is executed and checked by this one path
    only: where variants are parked live at a relaxed call (while an
    {!At_rendezvous} signal keeps relaxation off), the coordinator
    executes it for them and settles the position the same way. *)

val instructions_retired : t -> int
(** Total instructions across all variants — the redundant-computation
    cost that Table 3's saturated-throughput halving comes from. *)

val rendezvous_count : t -> int
(** Syscall rendezvous points so far (each costs one monitor check). *)

val metrics : t -> Nv_util.Metrics.t
(** The registry this monitor reports into (shared with its kernel by
    default). Monitor metrics: [monitor.rendezvous],
    [monitor.calls.<name>], [monitor.checks.performed],
    [monitor.checks.failed], [monitor.alarms.<label>],
    [monitor.latency_instr.<name>] (histogram of retired instructions
    between rendezvous), [monitor.input_bytes_replicated],
    [monitor.output_writes_checked], [monitor.signals_delivered],
    [monitor.relaxed_checks] (relaxed-call positions that passed their
    cross-check) and
    [monitor.deferred_batch_size] (histogram of how many deferred
    checks settled per flush boundary). *)

type stats = {
  st_rendezvous : int;
  st_instructions : int array;  (** retired, per variant *)
  st_calls : (string * int) list;  (** rendezvous per syscall name, sorted *)
  st_checks_performed : int;
      (** equivalence checks evaluated (argument, output, exit, cond,
          syscall-number) *)
  st_checks_failed : int;  (** checks that raised an alarm *)
  st_input_bytes_replicated : int;
      (** bytes of shared input performed once and copied to every
          variant *)
  st_output_writes_checked : int;
      (** shared writes whose bytes were compared across variants *)
  st_signals_delivered : int;
  st_relaxed_checks : int;
      (** relaxed-call positions that passed their cross-check, whether
          settled from deferred records or where the variants were
          parked live *)
}

val stats : t -> stats
(** Aggregate counters since creation — a thin view over {!metrics},
    the observability surface the operator of an N-variant deployment
    would watch. *)

(** {1 Flight recorder}

    Every monitor owns a disabled {!Nv_util.Trace} session with one
    ring per variant (tid [0..n-1]; owned by that variant's domain
    while it is released, so recording is lock-free), a coordinator
    ring (tid [n]: full and relaxed rendezvous, deferred-flush
    boundaries, alarms, and one human-readable [Note] per checked call,
    ["[<syscall>] <canonicalization summary>"]) and a kernel ring (tid
    [n+1]: every kernel dispatch). The coordinator ring's notes are the
    monitor's only breadcrumb stream ([nvexec --trace] and the Table 2
    and Figure 2 demos print them). Timestamps are retired-instruction
    counts — the variant's own for its ring, the all-variant total for
    the coordinator and kernel — so sequential and parallel runs of
    the same program record bit-identical streams. Enable with
    [Trace.set_enabled (trace_session t) true]; when disabled every
    recording site costs one atomic load, allocates no event and
    formats no note. *)

val trace_session : t -> Nv_util.Trace.t

val forensics : t -> Nv_util.Metrics.Json.value option
(** The post-mortem bundle captured by the most recent alarm (any
    alarm, whether or not the recorder is enabled): alarm class and
    payload including the divergent variant(s), syscall number and
    mismatched canonical argument values; rendezvous count; canonical
    and per-variant reexpressed credentials; each variant's pc,
    register file and retired count; and the tail of every trace ring
    (empty rings when the recorder was off). *)

(** {1 Asynchronous events (signals)}

    Section 3.1 flags scheduling divergence from asynchronous signal
    delivery as an open issue of the framework ("if a signal is
    delivered to variants at different points in their execution, their
    behaviors may diverge. This leads to a false attack detection"),
    and credits Bruschi et al. with steps toward simultaneous delivery.
    Both deliveries are implemented here:

    - {!Immediate} models a naive kernel: the handler is forced into
      each variant once that variant has retired a fixed number of
      further instructions. When data diversity makes the variants'
      instruction streams drift (e.g. while parsing different-length
      unshared files), the same count lands at {e different logical
      points} and normal equivalence can break — the false-detection
      hazard, reproducible on demand.
    - {!At_rendezvous} is the synchronized discipline: delivery is
      deferred to the next syscall rendezvous, where every variant is
      at an equivalent state, so handlers run in lockstep.

    Handler contract: a handler is a guest function of no arguments
    that mutates globals and returns; it must not make system calls
    (delivery is a synchronous monitor-driven subroutine execution,
    outside the lockstep protocol). A handler that traps raises a
    {!Alarm.Signal_delivery_failed} alarm. *)

type signal_mode =
  | Immediate of { after_instructions : int }
      (** deliver once the variant has retired this many further
          instructions *)
  | At_rendezvous  (** deliver at the next syscall rendezvous *)

val post_signal : t -> handler:string -> mode:signal_mode -> (unit, string) result
(** Queue one asynchronous event for every variant. Fails if [handler]
    is not a symbol of every variant's image, or if a signal is already
    pending. *)

val signal_pending : t -> bool

(** {1 Checkpointing}

    The state captured is exactly what rendezvous-determinism depends
    on: every variant's CPU + memory ({!Nv_vm.Image.snapshot}) and the
    kernel ({!Nv_os.Kernel.snapshot}). Metrics are {e not} rolled back
    (counters stay monotonic); the listener's pending-accept queue is
    preserved so connections queued after the checkpoint are still
    served. Take snapshots only while the system is parked at a
    rendezvous boundary ({!Blocked_on_accept} or before the first
    {!run}) — the supervisor enforces this. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the system. Each variant's segment costs only the pages it
    wrote since the last snapshot or restore (a served request writes a
    handful of 4 KiB pages); the rest are shared with earlier snapshots
    ({!Nv_vm.Memory.snapshot}). The kernel part is
    {!Nv_os.Kernel.snapshot}. *)

val restore : t -> snapshot -> int
(** Roll every variant and the kernel back to [snap]; returns the
    number of live connections dropped. Each segment copies back only
    the pages that differ from the snapshot, and only their cached
    decodes and compiled blocks are invalidated. Any pending signal is
    discarded and the latency baseline re-anchored. A snapshot may be
    restored any number of times. *)

val set_input_fault : t -> (variant:int -> string -> string) option -> unit
(** Install (or clear) a fault-injection hook on replicated input:
    when set, each shared read's bytes pass through the hook per
    variant, and each variant receives its own possibly-perturbed copy
    with its own byte count. Used by [Nv_attacks.Faultgen]. *)
