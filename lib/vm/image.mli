(** Relocatable program images and the loader.

    An image is laid out in {e segment-offset space}: code starts at
    offset 0, initialized data follows (16-byte aligned), then zeroed
    bss. Instructions whose immediate is an address carry a relocation
    mark; the loader adds the variant's segment [base] to those
    immediates. Loading the same image at two different bases is
    exactly the address-space-partitioning variation: the two variants
    are behaviourally identical but share no valid absolute
    addresses. *)

type item = { instr : Isa.t; relocate : bool }
(** One instruction; [relocate] means the embedded immediate (a jump /
    call target or an [Imm] operand) is a segment offset that the
    loader must rebase. *)

type t = {
  code : item array;
  data : Bytes.t;  (** initialized globals, at [data_offset] *)
  bss_size : int;  (** zeroed region after [data] *)
  entry_offset : int;  (** byte offset of the first executed instruction *)
  symbols : (string * int) list;  (** name -> segment offset *)
}

val data_offset : t -> int
(** Offset of the data region: code size rounded up to 16. *)

val image_size : t -> int
(** Bytes needed for code + data + bss (no stack). *)

val symbol : t -> string -> int
(** Segment offset of a symbol. Raises [Not_found]. *)

type layout = {
  base : int;
  code_start : int;
  data_start : int;
  bss_end : int;
  stack_top : int;
  abs_symbols : (string * int) list;  (** name -> absolute address *)
}

type loaded = { cpu : Cpu.t; memory : Memory.t; layout : layout }

val load : ?stack_size:int -> t -> base:int -> size:int -> tag:int -> loaded
(** Materialize the image into a fresh segment [\[base, base+size)]
    with instruction tag [tag] and the stack pointer at the top of the
    segment. Raises [Invalid_argument] if the image plus [stack_size]
    does not fit in [size]. *)

val abs_symbol : loaded -> string -> int
(** Absolute address of a symbol in a loaded instance. Raises
    [Not_found]. *)

type snapshot
(** A checkpoint of one loaded variant: the CPU's architectural state
    ({!Cpu.snapshot}) plus the segment's bytes ({!Memory.snapshot}).
    The layout is immutable and not captured. *)

val snapshot : loaded -> snapshot
(** Costs the registers plus a copy of the segment pages written since
    the variant's last snapshot or restore; unchanged pages are shared
    with earlier snapshots. *)

val restore : loaded -> snapshot -> unit
(** Roll the variant back to the snapshot. Only the pages that differ
    from it are copied back, and only their cached decodes and compiled
    blocks are invalidated (see {!Memory.restore}). *)
