(** Byte-addressable segmented guest memory.

    A segment maps the absolute address range [\[base, base + size)] to a
    backing byte array. Any access outside the segment raises
    {!Fault}; this is how address-space partitioning turns an injected
    absolute address into a detectable failure: an address that is
    mapped in variant 0's segment is unmapped in variant 1's.

    Words are stored little-endian. *)

type t

type access = Read | Write | Execute

exception Fault of { addr : int; access : access }
(** Raised on any access outside [\[base, base+size)]. *)

val create : base:int -> size:int -> t
(** Fresh zeroed segment. [base] and [size] must be non-negative and
    [base + size <= 2^32], otherwise [Invalid_argument]. *)

val base : t -> int
val size : t -> int

val in_range : t -> int -> bool
(** Whether an absolute address falls inside the segment. *)

val to_offset : t -> int -> int
(** Canonicalize an absolute address to a segment-relative offset (the
    paper's canonicalization function for address partitioning). Raises
    [Fault] if out of range. *)

type snapshot
(** A checkpoint of a segment's bytes, kept as one immutable image per
    {!page_size} page (the base/size geometry is not captured; a
    snapshot can only be restored into the segment it was taken from,
    or one with the same size). Pages that did not change between two
    snapshots are shared physically, so keeping many snapshots costs
    memory only for the pages that differ. *)

val page_size : int
(** Checkpoint and decode-state granularity in bytes (4 KiB). *)

val page_shift : int
(** [log2 page_size]: the page of segment offset [o] is [o lsr page_shift]. *)

val snapshot : t -> snapshot
(** Capture the segment. Costs a copy of the pages written since the
    last {!snapshot} or {!restore} of this segment (every store marks
    the pages it touches), plus one pointer per page; every other page
    shares the image already held. A snapshot is never modified
    afterwards and may be restored any number of times. *)

val dirty_pages : t -> int
(** Pages written since the last {!snapshot} or {!restore}: what the
    next snapshot will copy. *)

val restore : t -> snapshot -> unit
(** Overwrite the segment with the snapshot bytes. Only pages that were
    written since the last snapshot or restore, or whose image differs
    from the snapshot's, are copied back; for exactly those pages the
    decoded state is dropped outright (see {!decoded_pages}) and every
    compiled block whose span intersects them — including one that
    starts in the previous page — is invalidated (and counted in
    {!block_invalidations}). Decodes and blocks over untouched pages
    stay valid, since their bytes did not change. Restoring a snapshot
    taken from another segment of the same size copies every page
    whose image is not shared. Raises [Invalid_argument] on a
    segment-size mismatch. *)

val load_byte : t -> int -> int
val store_byte : t -> int -> int -> unit

val load_word : t -> int -> Word.t
(** Little-endian 32-bit load; all four bytes must be in range. *)

val store_word : t -> int -> Word.t -> unit

val load_bytes : t -> addr:int -> len:int -> bytes
val store_bytes : t -> addr:int -> bytes -> unit

val load_cstring : t -> addr:int -> max_len:int -> string
(** Read a NUL-terminated string starting at [addr]; stops at NUL or
    after [max_len] bytes (whichever comes first; the NUL is not
    included). Faults if it runs off the segment before terminating. *)

val store_cstring : t -> addr:int -> string -> unit
(** Write the string followed by a NUL byte. The whole destination
    range is validated before any byte is written, so a faulting store
    leaves guest memory untouched. *)

val exec_byte : t -> int -> int
(** Like {!load_byte} but faults carry [Execute] access, used by the
    CPU's fetch path so traces distinguish fetch faults. *)

(** {1 Decoded instruction fetch}

    The segment keeps a lazily filled cache of decoded instructions,
    one slot per [Isa.instr_size]-aligned window, allocated one
    {!page_size} page at a time: only pages that are fetched from, or
    that a compiled block spans, hold decode state. Every store
    ({!store_byte}, {!store_word}, {!store_bytes}, {!store_cstring})
    invalidates exactly the slots it overlaps, so self-modifying code
    and injected code are re-decoded (and re-tag-checked) on their next
    fetch — attack detection is byte-for-byte identical to the uncached
    decoder. *)

val fetch_decoded : t -> int -> (int * Isa.t, Isa.decode_error) result
(** Decode the instruction at an absolute address, returning
    [(tag, instruction)] from the cache when possible. Raises {!Fault}
    with [Execute] access (at the first out-of-range byte) when the
    [Isa.instr_size]-byte window is not fully mapped. Unaligned
    addresses (relative to the segment base) are decoded without
    caching. *)

val decoded_pages : t -> int
(** Pages that currently hold decode state: cached decodes, registered
    blocks, or the tail of a block that starts in the previous page. A
    page gains it on its first cached fetch or block registration and
    loses it when a {!restore} rewrites the page; the {!Reference}
    engine never creates any. *)

val page_decoded : t -> int -> bool
(** [page_decoded t p]: whether page [p] holds decode state. *)

val fetch_reference : t -> int -> (int * Isa.t, Isa.decode_error) result
(** The uncached reference fetch path: byte-at-a-time Execute-checked
    loads plus a fresh decode. Used by differential tests and the
    [hostperf] benchmark as the pre-cache baseline; semantics are
    identical to {!fetch_decoded}. *)

(** {1 Execution engine selection}

    The VM has three execution tiers sharing one observable semantics:
    the byte-at-a-time {!fetch_reference} decoder, the predecoded
    icache, and the basic-block compiler (see [Block]). The segment
    records which tier its CPU should run; [Block] implies the icache
    for fetches that fall outside a compiled block. *)

type engine = Reference | Icache | Block

val set_engine : t -> engine -> unit

val engine : t -> engine

val engine_of_string : string -> engine option
(** Parses ["reference" | "icache" | "block"]. *)

val engine_to_string : engine -> string

val default_engine : unit -> engine
(** The engine newly created segments start in: [NV_ENGINE] when set to
    a recognized name, otherwise {!Block}, the fastest tier. Each page
    that holds executed code carries decode state: three 512-slot
    arrays (12 KiB) plus the decoded instructions, about 40 KiB a page
    on the httpd server under [Icache]; [Block] adds a 512-slot
    compiled-block table and the compiled closures in the CPU, about
    80 KiB a page in all. {!Reference} keeps none. *)

(** {1 Compiled-block registry}

    The block compiler registers each compiled block's slot span here;
    every store whose range intersects a registered span flips the
    block's shared validity cell, so self-modifying and injected code
    always re-enter the decoder (and the tag check) on their next
    dispatch. *)

val max_block_slots : int
(** Upper bound on a registered block's span in slots; bounds the
    store-path back-scan. *)

val register_block : t -> slot:int -> slots:int -> bool ref
(** Register a block spanning [slots] instruction slots starting at
    entry slot [slot], replacing (and invalidating) any block
    previously registered at that entry. Returns the shared validity
    cell: it stays [true] until a store intersects the span, a
    {!restore} rewrites a page it intersects, or the entry is
    re-registered. *)

val block_invalidations : t -> int
(** How many registered blocks have been invalidated since the segment
    was created: by stores into their span, and by {!restore}s that
    rewrote a page their span intersects. *)

(** {1 Raw access for the block compiler}

    Compiled blocks inline their guest loads and stores directly over
    the backing bytes; anything out of range falls back to
    {!load_word}/{!store_word} for the exact fault. These two values
    exist only for that fast path — all other clients go through the
    checked accessors above. *)

val bytes : t -> Bytes.t
(** The live backing store. The reference is stable for the lifetime of
    the segment ({!restore} blits in place); offset [o] maps to address
    [base + o]. Callers that write through it must follow with
    {!invalidate_window}. *)

val invalidate_window : t -> int -> int -> unit
(** [invalidate_window t off len] performs the store-side cache
    maintenance for a write of [len] bytes at segment offset [off]:
    marks the touched pages dirty for the next {!snapshot}, drops
    overlapped icache slots and invalidates intersecting registered
    blocks. O(1) for stores into pages without decode state: a dirty
    mark and one load per touched page. *)
