type access = Read | Write | Execute

exception Fault of { addr : int; access : access }

(* One slot per [Isa.instr_size]-aligned window of the segment. A slot
   caches the full decode result (tag included) so the CPU's fetch path
   is an array load; stores into the window reset it to [Not_decoded]. *)
type icache_slot = Not_decoded | Cached of (int * Isa.t, Isa.decode_error) result

type engine = Reference | Icache | Block

(* A compiled basic block registered over the slot span
   [entry slot, be_end). [be_valid] is shared with the compiled closure
   on the CPU side: flipping it to [false] both retires the cache entry
   and makes an in-flight execution of the block bail out after the
   store that hit it. *)
type block_entry = { be_end : int; be_valid : bool ref }

(* The decoded state of one page, indexed by slot within the page. A
   block whose span crosses into the next page counts in that page's
   [cover] too, so the page holds a chunk as well. *)
type chunk = {
  slots : icache_slot array;
  entries : block_entry option array;  (* keyed by block-entry slot *)
  cover : int array;  (* per slot: how many live blocks span it *)
}

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  (* Copy-on-write checkpoint state. [pages.(p)] is the image of page [p]
     as of the last {!snapshot} or {!restore}; images are never mutated
     once captured, so snapshots share them freely. [dirty] holds one
     byte per page, set by every store. The invariant: a page that is
     not marked dirty holds exactly the bytes of its [pages] entry. *)
  pages : Bytes.t array;
  dirty : Bytes.t;
  (* Decoded state per page, created on the first decode or block
     registration in the page and dropped when a {!restore} rewrites
     it. Decoded slots and registered blocks exist only in pages that
     hold a chunk, so a store into any other page (stack and heap
     traffic, the overwhelmingly common case) skips all invalidation
     after one load. *)
  chunks : chunk option array;
  mutable engine : engine;
  mutable block_invalidations : int;
}

let engine_of_string = function
  | "reference" -> Some Reference
  | "icache" -> Some Icache
  | "block" -> Some Block
  | _ -> None

let engine_to_string = function
  | Reference -> "reference"
  | Icache -> "icache"
  | Block -> "block"

(* NV_ENGINE pins the execution tier for a whole process (the CI matrix
   runs the full test tree under NV_ENGINE=icache); unset or unknown
   values fall back to the block compiler. A page of executed code
   costs a chunk here (three 512-slot arrays, 12 KiB, plus the decoded
   instructions: about 40 KiB on the httpd server) and, under Block, a
   512-slot table and the compiled closures in [Block.cache]: about
   80 KiB a page in all. *)
let default_engine () =
  match Sys.getenv_opt "NV_ENGINE" with
  | None -> Block
  | Some s -> ( match engine_of_string s with Some e -> e | None -> Block)

(* Checkpoint and decode-state granularity: a snapshot copies the pages
   stored into since the previous snapshot or restore, in units of
   [page_size]. *)
let page_shift = 12

let page_size = 1 lsl page_shift

let zero_page = Bytes.make page_size '\000'

let create ~base ~size =
  if base < 0 || size < 0 || base + size > 0x1_0000_0000 then
    invalid_arg "Memory.create: segment outside the 32-bit address space";
  let npages = (size + page_size - 1) lsr page_shift in
  {
    base;
    size;
    data = Bytes.make size '\000';
    (* Every page starts as the shared zero page; a short last page gets
       its own zeroed image of the right length. *)
    pages =
      Array.init npages (fun p ->
          let len = min page_size (size - (p lsl page_shift)) in
          if len = page_size then zero_page else Bytes.make len '\000');
    dirty = Bytes.make npages '\000';
    chunks = Array.make npages None;
    engine = default_engine ();
    block_invalidations = 0;
  }

let base t = t.base

let size t = t.size

let in_range t addr = addr >= t.base && addr < t.base + t.size

let check t addr access = if not (in_range t addr) then raise (Fault { addr; access })

(* Fault for a multi-byte access [addr, addr+len): report the first
   out-of-range byte, exactly as the historical byte-at-a-time loops
   did. *)
let fault_range t addr len access =
  let rec first i =
    if i >= len then assert false
    else if not (in_range t (addr + i)) then raise (Fault { addr = addr + i; access })
    else first (i + 1)
  in
  first 0

let to_offset t addr =
  check t addr Read;
  addr - t.base

(* ------------------------------------------------------------------ *)
(* Engine selection                                                    *)
(* ------------------------------------------------------------------ *)

let set_engine t engine = t.engine <- engine

let engine t = t.engine

(* Slot index = offset / instr_size, as a shift on the (non-negative)
   validated offsets the hot paths pass in. *)
let instr_shift = 3

let () = assert (Isa.instr_size = 1 lsl instr_shift)

let slot_count t = (t.size + Isa.instr_size - 1) lsr instr_shift

(* Slot [s] lives in page [s lsr page_slot_shift], at index
   [s land page_slot_mask] of that page's chunk. Instructions are
   aligned, so none straddles a page. *)
let page_slot_shift = page_shift - instr_shift

let page_slots = 1 lsl page_slot_shift

let page_slot_mask = page_slots - 1

let chunk t p =
  match t.chunks.(p) with
  | Some c -> c
  | None ->
    let c =
      {
        slots = Array.make page_slots Not_decoded;
        entries = Array.make page_slots None;
        cover = Array.make page_slots 0;
      }
    in
    t.chunks.(p) <- Some c;
    c

let decoded_pages t =
  Array.fold_left (fun n c -> if Option.is_some c then n + 1 else n) 0 t.chunks

let page_decoded t p = Option.is_some t.chunks.(p)

(* ------------------------------------------------------------------ *)
(* Compiled-block registry                                             *)
(* ------------------------------------------------------------------ *)

(* Upper bound on a compiled block's slot span. The store path only has
   to back-scan this many entry slots to find a block that covers the
   stored-into slot, so the bound keeps invalidation O(cap) in the worst
   case and O(1) on the common data-store path (cover count is zero). It
   is below [page_slots], so a span reaches at most one page further. *)
let max_block_slots = 64

let () = assert (max_block_slots < page_slots)

let block_invalidations t = t.block_invalidations

(* Add [delta] to the cover count of every slot in [lo, hi), creating
   the chunks of the pages the span reaches. *)
let add_cover t lo hi delta =
  for s = lo to hi - 1 do
    let c = chunk t (s lsr page_slot_shift) in
    let i = s land page_slot_mask in
    c.cover.(i) <- c.cover.(i) + delta
  done

let unregister t slot =
  match t.chunks.(slot lsr page_slot_shift) with
  | None -> ()
  | Some c -> (
    let i = slot land page_slot_mask in
    match c.entries.(i) with
    | None -> ()
    | Some { be_end; be_valid } ->
      be_valid := false;
      c.entries.(i) <- None;
      add_cover t slot be_end (-1))

let register_block t ~slot ~slots =
  if slots < 1 || slots > max_block_slots then
    invalid_arg "Memory.register_block: span out of range";
  if slot < 0 || slot + slots > slot_count t then
    invalid_arg "Memory.register_block: slot out of range";
  unregister t slot;
  let be_valid = ref true in
  (chunk t (slot lsr page_slot_shift)).entries.(slot land page_slot_mask) <-
    Some { be_end = slot + slots; be_valid };
  add_cover t slot (slot + slots) 1;
  be_valid

(* Invalidate every registered block whose span intersects slots
   [lo, hi], all inside the page whose chunk is [c]. The cover counts
   make the no-block case (every store into plain data) a handful of
   array loads; only when a store actually lands under a compiled block
   do we back-scan the bounded window of entry slots that could span
   it, which may start in the previous page. *)
let invalidate_blocks t c lo hi =
  let covered = ref false in
  for s = lo to hi do
    if c.cover.(s land page_slot_mask) > 0 then covered := true
  done;
  if !covered then
    for e = max 0 (lo - max_block_slots + 1) to hi do
      match t.chunks.(e lsr page_slot_shift) with
      | None -> ()
      | Some ce -> (
        match ce.entries.(e land page_slot_mask) with
        | Some { be_end; _ } when be_end > lo ->
          unregister t e;
          t.block_invalidations <- t.block_invalidations + 1
        | _ -> ())
    done

(* Every store path ends here. The dirty mark is set on every page the
   store touches; decoded state is dropped only in the pages that hold
   a chunk, over the slots the store overlaps. *)
let invalidate_window t off len =
  let last = off + len - 1 in
  for p = off lsr page_shift to last lsr page_shift do
    Bytes.set t.dirty p '\001';
    match t.chunks.(p) with
    | None -> ()
    | Some c ->
      let first_slot = p lsl page_slot_shift in
      let lo = max (off lsr instr_shift) first_slot in
      let hi = min (last lsr instr_shift) (first_slot + page_slot_mask) in
      for s = lo to hi do
        c.slots.(s land page_slot_mask) <- Not_decoded
      done;
      invalidate_blocks t c lo hi
  done

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

type snapshot = { snap_size : int; snap_pages : Bytes.t array }

(* Dirty pages get fresh images (never the old ones, which earlier
   snapshots may share); clean pages keep theirs. *)
let snapshot t =
  for p = 0 to Array.length t.pages - 1 do
    if Bytes.unsafe_get t.dirty p <> '\000' then begin
      t.pages.(p) <- Bytes.sub t.data (p lsl page_shift) (Bytes.length t.pages.(p));
      Bytes.unsafe_set t.dirty p '\000'
    end
  done;
  { snap_size = t.size; snap_pages = Array.copy t.pages }

let dirty_pages t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.dirty;
  !n

(* Drop page [p]'s decoded state outright. Its blocks are unregistered
   first, together with any block that straddles into it from the
   previous page, so no cover count outside the page refers to it and
   every compiled closure over it sees its validity cell flip. *)
let drop_page t p =
  match t.chunks.(p) with
  | None -> ()
  | Some c ->
    let first_slot = p lsl page_slot_shift in
    invalidate_blocks t c first_slot (first_slot + page_slot_mask);
    t.chunks.(p) <- None

(* By the invariant, a clean page whose image is physically the
   snapshot's already holds the snapshot's bytes; every other page is
   blitted, and only its decoded state is dropped. *)
let restore t snap =
  if snap.snap_size <> t.size then
    invalid_arg "Memory.restore: snapshot is for a different segment size";
  for p = 0 to Array.length t.pages - 1 do
    let img = snap.snap_pages.(p) in
    if Bytes.unsafe_get t.dirty p <> '\000' || img != t.pages.(p) then begin
      Bytes.blit img 0 t.data (p lsl page_shift) (Bytes.length img);
      t.pages.(p) <- img;
      Bytes.unsafe_set t.dirty p '\000';
      drop_page t p
    end
  done

let load_byte t addr =
  check t addr Read;
  Char.code (Bytes.get t.data (addr - t.base))

let store_byte t addr b =
  check t addr Write;
  let off = addr - t.base in
  Bytes.set t.data off (Char.chr (b land 0xFF));
  invalidate_window t off 1

let exec_byte t addr =
  check t addr Execute;
  Char.code (Bytes.get t.data (addr - t.base))

let load_word t addr =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Read;
  Int32.to_int (Bytes.get_int32_le t.data off) land 0xFFFFFFFF

let store_word t addr w =
  let off = addr - t.base in
  if off < 0 || off + 4 > t.size then fault_range t addr 4 Write;
  Bytes.set_int32_le t.data off (Int32.of_int w);
  invalidate_window t off 4

let load_bytes t ~addr ~len =
  if len < 0 then invalid_arg "Memory.load_bytes: negative length";
  check t addr Read;
  if len > 0 then check t (addr + len - 1) Read;
  Bytes.sub t.data (addr - t.base) len

let store_bytes t ~addr data =
  let len = Bytes.length data in
  check t addr Write;
  if len > 0 then check t (addr + len - 1) Write;
  let off = addr - t.base in
  Bytes.blit data 0 t.data off len;
  if len > 0 then invalidate_window t off len

let load_cstring t ~addr ~max_len =
  if max_len <= 0 then ""
  else begin
    check t addr Read;
    let off = addr - t.base in
    (* The scan may stop at a NUL, at [max_len], or fault at the end of
       the segment — whichever comes first. *)
    let window_end = min (off + max_len) t.size in
    let rec find i = if i >= window_end then i else if Bytes.get t.data i = '\000' then i else find (i + 1) in
    let stop = find off in
    if stop >= window_end && window_end < off + max_len then
      (* Ran off the segment before a NUL or the length bound. *)
      raise (Fault { addr = t.base + t.size; access = Read });
    Bytes.sub_string t.data off (stop - off)
  end

let store_cstring t ~addr s =
  (* Validate the whole destination (string plus NUL) before touching
     guest memory, so a faulting store never leaves a partial write. *)
  let len = String.length s + 1 in
  let off = addr - t.base in
  if off < 0 || off + len > t.size then fault_range t addr len Write;
  Bytes.blit_string s 0 t.data off (String.length s);
  Bytes.set t.data (off + String.length s) '\000';
  invalidate_window t off len

(* ------------------------------------------------------------------ *)
(* Decoded fetch                                                       *)
(* ------------------------------------------------------------------ *)

(* The pre-cache fetch path, kept as the differential-testing and
   benchmarking reference: byte-at-a-time Execute-checked loads into a
   fresh buffer, then a full decode. *)
let fetch_reference t addr =
  let b = Bytes.create Isa.instr_size in
  for i = 0 to Isa.instr_size - 1 do
    Bytes.set b i (Char.chr (exec_byte t (addr + i)))
  done;
  Isa.decode b

let fetch_decoded t addr =
  let off = addr - t.base in
  if
    t.engine = Reference
    || off < 0
    || off + Isa.instr_size > t.size
    || off land (Isa.instr_size - 1) <> 0
  then
    (* Reference engine, out of range (faults like the byte loop), or an
       unaligned fetch that would alias a cache slot: decode fresh. *)
    fetch_reference t addr
  else begin
    let c = chunk t (off lsr page_shift) in
    let i = (off lsr instr_shift) land page_slot_mask in
    match c.slots.(i) with
    | Cached r -> r
    | Not_decoded ->
      let r = Isa.decode_at t.data ~pos:off in
      c.slots.(i) <- Cached r;
      r
  end

(* ------------------------------------------------------------------ *)
(* Raw access for the block compiler                                   *)
(* ------------------------------------------------------------------ *)

let bytes t = t.data
