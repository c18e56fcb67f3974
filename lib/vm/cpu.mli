(** Fetch-decode-execute engine for one guest variant.

    A CPU owns a register file, a program counter, and a {!Memory.t}
    segment. It executes until it {e traps}: on [Syscall] (control
    returns to the monitor, which implements the kernel boundary of the
    N-variant framework), on [Halt], on a memory/decoding fault, or when
    the supplied fuel runs out.

    The [expected_tag] implements the instruction-set-tagging variation:
    every fetched instruction's tag byte must equal it. *)

type fault = Block.fault =
  | Segfault of { addr : int; access : Memory.access }
      (** Access outside the variant's segment — the alarm state of
          address-space partitioning. *)
  | Bad_tag of { addr : int; found : int; expected : int }
      (** Instruction-tag mismatch — the alarm state of instruction-set
          tagging. *)
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }  (** push/pop outside the segment *)

type trap = Block.trap =
  | Syscall_trap  (** [Syscall] executed; ABI registers hold the call. *)
  | Halt_trap
  | Fault_trap of fault

type outcome =
  | Trapped of trap
  | Out_of_fuel

type t

val create : ?expected_tag:int -> Memory.t -> pc:int -> sp:int -> t
(** Fresh CPU with all registers zero except [r13 = sp]. *)

val memory : t -> Memory.t
val pc : t -> int
val set_pc : t -> int -> unit

val reg : t -> int -> Word.t
(** Raises [Invalid_argument] for indices outside [\[0,15\]]. *)

val set_reg : t -> int -> Word.t -> unit

val sp_index : int
(** 13. *)

val fp_index : int
(** 12. *)

val instructions_retired : t -> int
(** Total instructions executed since creation; the service-demand
    measure that drives the Table 3 performance model. *)

val expected_tag : t -> int

type snapshot
(** Architectural state checkpoint: all 16 registers, the pc, and the
    retired-instruction count (restored too, so fuel accounting and
    instruction-count fingerprints roll back with the machine state). *)

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

val step : t -> trap option
(** Execute one instruction. [None] means normal advancement. After a
    [Syscall_trap] the pc already points at the next instruction, so
    calling {!step} again resumes after the syscall. A fault leaves the
    pc at the faulting instruction. *)

val run : t -> fuel:int -> outcome
(** Execute until a trap or until [fuel] instructions have retired.
    The execution tier is the segment's {!Memory.engine}: under
    [Block] the hot path runs whole compiled basic blocks (see
    {!Block}), falling back to {!step} whenever no block is
    dispatchable; under [Reference]/[Icache] it single-steps. All
    three tiers retire the same instructions, trap at the same pcs,
    and never overrun [fuel]. *)

val block_stats : t -> int * int * int
(** [(compiled, hits, invalidations)] for the block engine: blocks
    compiled, dispatches served from the cache, and registered blocks
    invalidated by stores or by rollbacks that rewrote their pages. All zero until the first
    block-engine {!run}. *)

val pp_fault : Format.formatter -> fault -> unit
val pp_trap : Format.formatter -> trap -> unit
