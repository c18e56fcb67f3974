(** Basic-block superinstruction compiler — the VM's third execution
    tier, above {!Memory.fetch_reference} and the predecoded icache.

    Basic blocks are discovered at execution time (entry pc to the
    first control transfer, capped at {!Memory.max_block_slots}
    instructions) and compiled into closures with register and operand
    accesses specialized per instruction and the per-instruction tag
    check hoisted to one per-block tag comparison at dispatch.
    Compiled blocks are cached per CPU in one table per
    {!Memory.page_size} page of the segment (created by the page's first
    compile), keyed by block-entry slot, and registered with the segment's block registry
    ({!Memory.register_block}) so that any store into a block's byte
    range — self-modifying code, injected shellcode, a supervisor
    rollback — invalidates it before the next dispatch (or, for a
    store issued from inside the very block it rewrites, before the
    next instruction of the in-flight execution).

    Observable semantics are bit-identical to the stepping
    interpreter: retired counts advance per instruction, faults leave
    registers and pc exactly as {!Cpu.step} would, and a block is only
    dispatched when it fits in the remaining fuel, so
    {!Cpu.run}[ ~fuel] never overruns its slice.

    This module sits below [Cpu] in the dependency order and therefore
    owns the fault/trap types; [Cpu] re-exports them. *)

type fault =
  | Segfault of { addr : int; access : Memory.access }
  | Bad_tag of { addr : int; found : int; expected : int }
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }

type trap = Syscall_trap | Halt_trap | Fault_trap of fault

type status = {
  mutable st_pc : int;  (** pc after the (partial) block execution *)
  mutable st_retired : int;  (** instructions retired by this execution *)
  mutable st_trap : trap option;
  mutable st_k : int;  (** executor scratch; meaningless between runs *)
  mutable st_base : int;  (** executor scratch: completed self-loop iterations *)
  mutable st_budget : int;
      (** set by the dispatcher before {!exec}: total fuel available,
          bounding how many times a self-looping block may re-enter
          itself without returning *)
}
(** Reusable scratch cell the executor reports into, so the hot path
    allocates nothing per block. *)

type compiled
(** A compiled block: hoisted tag, length, shared validity cell, and
    the executor closure. *)

type cache
(** Per-CPU block cache over one segment. The closures capture the
    CPU's register file and segment directly. *)

val create : Memory.t -> int array -> expected_tag:int -> cache
(** [create mem regs ~expected_tag] — [regs] is the live 16-entry
    register file the compiled closures mutate in place. *)

val scratch : cache -> status

val find : cache -> pc:int -> remaining:int -> compiled option
(** Return a block runnable from [pc] within [remaining] fuel,
    compiling (and registering) it on a miss. [None] means the caller
    must fall back to single-stepping: unaligned or out-of-range pc,
    undecodable entry, a hoisted tag that differs from the CPU's
    expected tag (the step raises the precise fault), or a block
    longer than [remaining]. *)

val exec : compiled -> status -> unit
(** Run the block, filling the status cell with the resulting pc,
    retired count, and trap (if any). Never raises. The caller must
    set [st_budget] to the remaining fuel first: a block whose branch
    terminator targets its own entry loops inside the chain while full
    iterations fit in the budget, reporting the accumulated retired
    count. *)

val length : compiled -> int
(** Number of instructions in the block. *)

val compiled_blocks : cache -> int
(** Compilations performed (recompilations after invalidation
    included). *)

val hits : cache -> int
(** Dispatches served by an already-compiled, still-valid block. *)
