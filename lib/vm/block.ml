(* Basic-block superinstruction compiler: the third execution tier.

   A block is a maximal straight-line run of same-tagged instructions
   starting at an aligned segment offset and ending at the first
   control transfer (or at [Memory.max_block_slots] instructions, a tag
   change, a decode error, or the end of the segment). Each instruction
   is compiled once into a closure with its register indices and
   operand shape burned in; executing the block is then an array walk
   of closure calls with no per-instruction fetch, decode, tag check,
   pc update, or retired update.

   The observable semantics must match the stepping interpreter
   bit-for-bit — the monitor's signal-delivery slicing and the trace
   timestamps both key off exact retired counts — so the executor
   reconstructs the interpreter's exact architectural state at every
   early exit: a faulting instruction retires nothing and leaves the pc
   on itself; a mid-block store that hits the block's own bytes retires
   normally and hands control back to the dispatcher, which re-decodes
   the (possibly rewritten) successor exactly as the interpreter
   would. *)

type fault =
  | Segfault of { addr : int; access : Memory.access }
  | Bad_tag of { addr : int; found : int; expected : int }
  | Bad_instruction of { addr : int }
  | Division_fault of { addr : int }
  | Stack_fault of { addr : int }

type trap = Syscall_trap | Halt_trap | Fault_trap of fault

type status = {
  mutable st_pc : int;
  mutable st_retired : int;
  mutable st_trap : trap option;
  mutable st_k : int;  (* executor scratch: index of the running instruction *)
  (* Self-loop chaining state: a block whose branch terminator targets
     its own entry re-enters its chain directly while another full
     iteration fits in [st_budget] (the dispatcher's remaining fuel),
     accumulating completed iterations in [st_base]. Terminators and
     the exception handlers report [st_base + within-pass] retired, so
     observable counts are identical to dispatching every iteration. *)
  mutable st_base : int;
  mutable st_budget : int;
}

type compiled = {
  c_tag : int;  (* the hoisted per-block tag; -1 for uncompilable entries *)
  c_len : int;  (* instructions in the block; 0 = uncompilable entry *)
  c_valid : bool ref;  (* shared with the segment's block registry *)
  c_exec : status -> unit;
}

type cache = {
  mem : Memory.t;
  regs : int array;
  expected_tag : int;
  (* Keyed by page, then by block-entry slot within the page; a page's
     table is created by its first compile. An entry is stored as the
     option [find] returns, so a dispatch allocates nothing. *)
  table : compiled option array option array;
  scratch : status;
  mutable compiled_blocks : int;
  mutable hits : int;
  (* Monomorphic last-dispatch memo: a loop body re-dispatching the
     same block (the common steady state) skips the table lookup and
     the tag/length checks, paying one pc compare and one validity
     deref. *)
  mutable last_pc : int;
  mutable last : compiled option;
}

(* Slot [s] is entry [s land page_slot_mask] of page [s lsr page_slot_shift]. *)
let page_slot_shift = Memory.page_shift - 3

let page_slot_mask = (1 lsl page_slot_shift) - 1

let create mem regs ~expected_tag =
  let pages = (Memory.size mem + Memory.page_size - 1) / Memory.page_size in
  {
    mem;
    regs;
    expected_tag;
    table = Array.make pages None;
    scratch =
      { st_pc = 0; st_retired = 0; st_trap = None; st_k = 0; st_base = 0; st_budget = 0 };
    compiled_blocks = 0;
    hits = 0;
    last_pc = -1;
    last = None;
  }

let scratch c = c.scratch

let compiled_blocks c = c.compiled_blocks

let hits c = c.hits

(* Raised by a compiled store whose write just landed inside this very
   block. The executor bails out with the store retired; the dispatcher
   then re-enters through the decoder, so rewritten successor
   instructions are re-fetched (and re-tag-checked) exactly as the
   stepping interpreter would. *)
exception Invalidated

let is_terminator = function
  | Isa.Br _ | Isa.Jmp _ | Isa.Jmpr _ | Isa.Call _ | Isa.Callr _ | Isa.Ret
  | Isa.Halt | Isa.Syscall ->
    true
  | Isa.Nop | Isa.Mov _ | Isa.Load _ | Isa.Store _ | Isa.Loadb _ | Isa.Storeb _
  | Isa.Binop _ | Isa.Setcc _ | Isa.Push _ | Isa.Pop _ ->
    false

let is_stackish = function
  | Isa.Push _ | Isa.Pop _ | Isa.Call _ | Isa.Callr _ | Isa.Ret -> true
  | _ -> false

(* Compile one instruction to a closure. Register indices come out of
   the decoder already validated to [0, 15], so the register file is
   accessed unsafely; every memory access, update order, and masking
   step mirrors [Cpu.execute] exactly. *)
(* r13 is the stack pointer, mirroring [Cpu.sp_index] (which lives
   above this module in the dependency order). *)
let sp_index = 13

(* Compile instruction [k] of a block into one link of a
   continuation-passing chain: the closure does its work and
   tail-calls [kont] (the rest of the block), so executing a block is
   a straight run of indirect jumps — no dispatch loop, no array walk,
   no per-instruction bookkeeping. Only instructions that can raise
   (memory accesses, div/mod) record their index in [st_k] first, so
   the exception handlers can reconstruct the interpreter's exact
   state; pure register moves pay nothing. Terminators ignore [kont],
   write the final pc/retired/trap and return. [len] is the full block
   length (what a completed block retires). *)
let compile_instr c regs mem valid instr ~k ~len ~at ~next ~entry ~head ~kont =
  let sp = sp_index in
  (* Guest loads and stores are inlined over the backing bytes: the
     closure burns in [data]/[base]/[size] (all immutable for the
     segment's lifetime) and does its own range check; anything out of
     range takes the [Memory] slow path, which raises the exact fault
     the interpreter would. [st_k] is only written on those slow
     paths — the in-range fast path cannot raise. *)
  let data = Memory.bytes mem in
  let mbase = Memory.base mem in
  let msize = Memory.size mem in
  match instr with
  | Isa.Nop -> kont (* retires with the block; position [k] needs no code at all *)
  | Isa.Halt ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- at;
      st.st_trap <- Some Halt_trap
  | Isa.Mov (rd, Isa.Imm w) ->
    fun st ->
      Array.unsafe_set regs rd w;
      kont st
  | Isa.Mov (rd, Isa.Reg rs) ->
    fun st ->
      Array.unsafe_set regs rd (Array.unsafe_get regs rs);
      kont st
  | Isa.Load (rd, rs, off) ->
    fun st ->
      let addr = Word.mask (Array.unsafe_get regs rs + off) in
      let o = addr - mbase in
      if o >= 0 && o + 4 <= msize then
        Array.unsafe_set regs rd (Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF)
      else begin
        st.st_k <- k;
        Array.unsafe_set regs rd (Memory.load_word mem addr)
      end;
      kont st
  | Isa.Store (rd, off, rs) ->
    fun st ->
      let addr = Word.mask (Array.unsafe_get regs rd + off) in
      let o = addr - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int (Array.unsafe_get regs rs));
        Memory.invalidate_window mem o 4
      end
      else begin
        st.st_k <- k;
        Memory.store_word mem addr (Array.unsafe_get regs rs)
      end;
      if !valid then kont st
      else begin
        st.st_k <- k;
        raise_notrace Invalidated
      end
  | Isa.Loadb (rd, rs, off) ->
    fun st ->
      let addr = Word.mask (Array.unsafe_get regs rs + off) in
      let o = addr - mbase in
      if o >= 0 && o < msize then
        Array.unsafe_set regs rd (Char.code (Bytes.unsafe_get data o))
      else begin
        st.st_k <- k;
        Array.unsafe_set regs rd (Memory.load_byte mem addr)
      end;
      kont st
  | Isa.Storeb (rd, off, rs) ->
    fun st ->
      let addr = Word.mask (Array.unsafe_get regs rd + off) in
      let o = addr - mbase in
      if o >= 0 && o < msize then begin
        Bytes.unsafe_set data o (Char.unsafe_chr (Array.unsafe_get regs rs land 0xFF));
        Memory.invalidate_window mem o 1
      end
      else begin
        st.st_k <- k;
        Memory.store_byte mem addr (Array.unsafe_get regs rs)
      end;
      if !valid then kont st
      else begin
        st.st_k <- k;
        raise_notrace Invalidated
      end
  | Isa.Binop (op, rd, rs, o) -> (
    let module W = Word in
    match (op, o) with
    | Isa.Add, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.add (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Add, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.add (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Sub, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.sub (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Sub, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.sub (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Mul, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.mul (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Mul, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.mul (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Div, Isa.Imm w ->
      fun st ->
        st.st_k <- k;
        Array.unsafe_set regs rd (W.div_signed (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Div, Isa.Reg rt ->
      fun st ->
        st.st_k <- k;
        Array.unsafe_set regs rd
          (W.div_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Mod, Isa.Imm w ->
      fun st ->
        st.st_k <- k;
        Array.unsafe_set regs rd (W.rem_signed (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Mod, Isa.Reg rt ->
      fun st ->
        st.st_k <- k;
        Array.unsafe_set regs rd
          (W.rem_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.And, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs land w);
        kont st
    | Isa.And, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs land Array.unsafe_get regs rt);
        kont st
    | Isa.Or, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lor w);
        kont st
    | Isa.Or, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lor Array.unsafe_get regs rt);
        kont st
    | Isa.Xor, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lxor w);
        kont st
    | Isa.Xor, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd (Array.unsafe_get regs rs lxor Array.unsafe_get regs rt);
        kont st
    | Isa.Shl, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.shift_left (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Shl, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.shift_left (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Shr, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.shift_right_logical (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Shr, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.shift_right_logical (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st
    | Isa.Sar, Isa.Imm w ->
      fun st ->
        Array.unsafe_set regs rd (W.shift_right_arith (Array.unsafe_get regs rs) w);
        kont st
    | Isa.Sar, Isa.Reg rt ->
      fun st ->
        Array.unsafe_set regs rd
          (W.shift_right_arith (Array.unsafe_get regs rs) (Array.unsafe_get regs rt));
        kont st)
  | Isa.Setcc (cond, rd, rs, Isa.Imm w) ->
    fun st ->
      Array.unsafe_set regs rd
        (if Isa.eval_cond cond (Array.unsafe_get regs rs) w then 1 else 0);
      kont st
  | Isa.Setcc (cond, rd, rs, Isa.Reg rt) ->
    fun st ->
      Array.unsafe_set regs rd
        (if Isa.eval_cond cond (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)
         then 1
         else 0);
      kont st
  | Isa.Br (cond, rs, rt, target) -> (
    (* The block's hottest terminator (every loop backedge): the
       condition is specialized at compile time so taking the branch
       costs two register loads and a compare. When the branch targets
       this block's own entry — a self-contained loop body, the hottest
       shape there is — taking it re-enters the chain head directly
       while another full iteration fits in the fuel budget, so steady-
       state loop iterations never touch the dispatcher at all. *)
    let module W = Word in
    let take =
      if target = entry then fun st t ->
        if t then begin
          let done_ = st.st_base + len in
          if done_ + len <= st.st_budget then begin
            st.st_base <- done_;
            c.hits <- c.hits + 1;
            !head st
          end
          else begin
            st.st_retired <- done_;
            st.st_pc <- target
          end
        end
        else begin
          st.st_retired <- st.st_base + len;
          st.st_pc <- next
        end
      else fun st t ->
        st.st_retired <- st.st_base + len;
        st.st_pc <- (if t then target else next)
    in
    match cond with
    | Isa.Eq -> fun st -> take st (Array.unsafe_get regs rs = Array.unsafe_get regs rt)
    | Isa.Ne -> fun st -> take st (Array.unsafe_get regs rs <> Array.unsafe_get regs rt)
    | Isa.Lt ->
      fun st -> take st (W.lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt))
    | Isa.Le ->
      fun st ->
        take st (not (W.lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs)))
    | Isa.Gt ->
      fun st -> take st (W.lt_signed (Array.unsafe_get regs rt) (Array.unsafe_get regs rs))
    | Isa.Ge ->
      fun st ->
        take st (not (W.lt_signed (Array.unsafe_get regs rs) (Array.unsafe_get regs rt)))
    | Isa.Ltu ->
      fun st -> take st (Array.unsafe_get regs rs < Array.unsafe_get regs rt)
    | Isa.Leu ->
      fun st -> take st (Array.unsafe_get regs rs <= Array.unsafe_get regs rt)
    | Isa.Gtu ->
      fun st -> take st (Array.unsafe_get regs rs > Array.unsafe_get regs rt)
    | Isa.Geu ->
      fun st -> take st (Array.unsafe_get regs rs >= Array.unsafe_get regs rt))
  | Isa.Jmp target ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- target
  | Isa.Jmpr rs ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- Array.unsafe_get regs rs
  | Isa.Call target ->
    let rnext = Word.mask next in
    fun st ->
      let nsp = Word.sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int rnext);
        Memory.invalidate_window mem o 4
      end
      else begin
        st.st_k <- k;
        Memory.store_word mem nsp rnext
      end;
      Array.unsafe_set regs sp nsp;
      st.st_retired <- st.st_base + len;
      st.st_pc <- target
  | Isa.Callr rs ->
    let rnext = Word.mask next in
    fun st ->
      let nsp = Word.sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int rnext);
        Memory.invalidate_window mem o 4
      end
      else begin
        st.st_k <- k;
        Memory.store_word mem nsp rnext
      end;
      Array.unsafe_set regs sp nsp;
      st.st_retired <- st.st_base + len;
      (* Read the target after the sp update, as the interpreter does:
         [callr r13] must jump to the new stack pointer. *)
      st.st_pc <- Array.unsafe_get regs rs
  | Isa.Ret ->
    fun st ->
      let osp = Array.unsafe_get regs sp in
      let o = osp - mbase in
      let target =
        if o >= 0 && o + 4 <= msize then
          Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF
        else begin
          st.st_k <- k;
          Memory.load_word mem osp
        end
      in
      Array.unsafe_set regs sp (Word.add osp 4);
      st.st_retired <- st.st_base + len;
      st.st_pc <- target
  | Isa.Push rs ->
    fun st ->
      let nsp = Word.sub (Array.unsafe_get regs sp) 4 in
      let o = nsp - mbase in
      if o >= 0 && o + 4 <= msize then begin
        Bytes.set_int32_le data o (Int32.of_int (Array.unsafe_get regs rs));
        Memory.invalidate_window mem o 4
      end
      else begin
        st.st_k <- k;
        Memory.store_word mem nsp (Array.unsafe_get regs rs)
      end;
      Array.unsafe_set regs sp nsp;
      if !valid then kont st
      else begin
        st.st_k <- k;
        raise_notrace Invalidated
      end
  | Isa.Pop rd ->
    fun st ->
      let osp = Array.unsafe_get regs sp in
      let o = osp - mbase in
      if o >= 0 && o + 4 <= msize then
        Array.unsafe_set regs rd (Int32.to_int (Bytes.get_int32_le data o) land 0xFFFFFFFF)
      else begin
        st.st_k <- k;
        Array.unsafe_set regs rd (Memory.load_word mem osp)
      end;
      (* After the destination write, as the interpreter does: [pop r13]
         ends with sp+4, not the popped value. *)
      Array.unsafe_set regs sp (Word.add osp 4);
      kont st
  | Isa.Syscall ->
    fun st ->
      st.st_retired <- st.st_base + len;
      st.st_pc <- next;
      st.st_trap <- Some Syscall_trap

(* Walk the decoder forward from the entry until the block closes:
   first control transfer (kept, as the block's last instruction), tag
   change, decode error, fetch fault, or the span cap. *)
let discover mem ~entry_off =
  let base = Memory.base mem in
  let rec go acc k block_tag =
    if k >= Memory.max_block_slots then List.rev acc
    else begin
      let at = base + entry_off + (k * Isa.instr_size) in
      match Memory.fetch_decoded mem at with
      | exception Memory.Fault _ -> List.rev acc
      | Error _ -> List.rev acc
      | Ok (tag, instr) ->
        if k > 0 && tag <> block_tag then List.rev acc
        else if is_terminator instr then List.rev ((tag, instr) :: acc)
        else go ((tag, instr) :: acc) (k + 1) (if k = 0 then tag else block_tag)
    end
  in
  go [] 0 0

(* The table of [slot]'s page, ready for a new entry. When the segment
   holds no decode state for the page, every block this table has for
   it was invalidated by the restore that dropped that state, so the
   old table is dropped too. Call before the compile registers (and so
   re-creates) the page's state. *)
let page_table c ~slot =
  let p = slot lsr page_slot_shift in
  match c.table.(p) with
  | Some page when Memory.page_decoded c.mem p -> page
  | _ ->
    let page = Array.make (page_slot_mask + 1) None in
    c.table.(p) <- Some page;
    page

let uncompilable valid =
  { c_tag = -1; c_len = 0; c_valid = valid; c_exec = (fun _ -> assert false) }

(* Compile the block at [slot] and store it; returns the stored option. *)
let compile c ~slot =
  let page = page_table c ~slot in
  let i = slot land page_slot_mask in
  let entry_off = slot * Isa.instr_size in
  let entry_addr = Memory.base c.mem + entry_off in
  match discover c.mem ~entry_off with
  | [] ->
    (* Nothing decodes at the entry; register a one-slot span anyway so
       a store that rewrites these bytes forces a recompile. *)
    let valid = Memory.register_block c.mem ~slot ~slots:1 in
    let r = Some (uncompilable valid) in
    page.(i) <- r;
    r
  | (c_tag, _) :: _ as instrs ->
    let len = List.length instrs in
    let valid = Memory.register_block c.mem ~slot ~slots:len in
    let stackish = Array.make len false in
    List.iteri (fun k (_, instr) -> stackish.(k) <- is_stackish instr) instrs;
    let fallthrough = entry_addr + (len * Isa.instr_size) in
    (* A block that ran off its end without a terminator (cap, tag
       change, decode error ahead) falls through to the dispatcher. *)
    let fin st =
      st.st_retired <- st.st_base + len;
      st.st_pc <- fallthrough
    in
    (* Build the chain back to front so each op captures its
       continuation directly. [head] ties the knot for a self-looping
       terminator: it re-enters the chain from the top without going
       back through the dispatcher. *)
    let head = ref (fun (_ : status) -> assert false) in
    let rec build k = function
      | [] -> fin
      | (_, instr) :: rest ->
        let kont = build (k + 1) rest in
        let at = entry_addr + (k * Isa.instr_size) in
        compile_instr c c.regs c.mem valid instr ~k ~len ~at ~next:(at + Isa.instr_size)
          ~entry:entry_addr ~head ~kont
    in
    let chain = build 0 instrs in
    head := chain;
    let exec st =
      st.st_trap <- None;
      st.st_base <- 0;
      try chain st with
      | Memory.Fault { addr; access } ->
        (* The faulting instruction retires nothing and the pc parks on
           it, exactly as [Cpu.step] leaves things. *)
        let k = st.st_k in
        st.st_retired <- st.st_base + k;
        st.st_pc <- entry_addr + (k * Isa.instr_size);
        st.st_trap <-
          Some
            (Fault_trap
               (if Array.unsafe_get stackish k then Stack_fault { addr }
                else Segfault { addr; access }))
      | Division_by_zero ->
        let k = st.st_k in
        let at = entry_addr + (k * Isa.instr_size) in
        st.st_retired <- st.st_base + k;
        st.st_pc <- at;
        st.st_trap <- Some (Fault_trap (Division_fault { addr = at }))
      | Invalidated ->
        (* The store itself retired normally; resume after it through
           the dispatcher so rewritten bytes are freshly decoded. *)
        st.st_retired <- st.st_base + st.st_k + 1;
        st.st_pc <- entry_addr + ((st.st_k + 1) * Isa.instr_size)
    in
    let r = Some { c_tag; c_len = len; c_valid = valid; c_exec = exec } in
    page.(i) <- r;
    c.compiled_blocks <- c.compiled_blocks + 1;
    r

let length cb = cb.c_len

let exec cb st = cb.c_exec st

(* A compilable entry whose hoisted tag is the CPU's and which fits the
   fuel left. *)
let dispatchable c cb ~remaining =
  cb.c_len > 0 && cb.c_tag = c.expected_tag && cb.c_len <= remaining

(* Dispatch: return a block runnable from [pc] within [remaining] fuel,
   compiling on a miss. [None] sends the caller to the stepping
   interpreter for one instruction — unaligned or out-of-range pcs,
   undecodable entries, hoisted-tag mismatches (the single step raises
   the precise [Bad_tag]/[Bad_instruction]/fault), and blocks longer
   than the remaining fuel (the monitor's signal slicing counts on
   [run] never overrunning its fuel). *)
let find c ~pc ~remaining =
  match c.last with
  | Some cb when c.last_pc = pc && !(cb.c_valid) && cb.c_len <= remaining ->
    (* Steady-state loop body: same entry as last dispatch, block still
       valid (tag and alignment were checked when the memo was set). *)
    c.hits <- c.hits + 1;
    c.last
  | _ ->
    let off = pc - Memory.base c.mem in
    if
      off < 0
      || off + Isa.instr_size > Memory.size c.mem
      || off land (Isa.instr_size - 1) <> 0
    then None
    else begin
      let slot = off lsr 3 in
      let cached =
        match Array.unsafe_get c.table (slot lsr page_slot_shift) with
        | Some page -> Array.unsafe_get page (slot land page_slot_mask)
        | None -> None
      in
      match cached with
      | Some cb as r when !(cb.c_valid) ->
        if dispatchable c cb ~remaining then begin
          c.hits <- c.hits + 1;
          c.last_pc <- pc;
          c.last <- r;
          r
        end
        else None
      | _ -> (
        match compile c ~slot with
        | Some cb as r when dispatchable c cb ~remaining ->
          c.last_pc <- pc;
          c.last <- r;
          r
        | _ -> None)
    end
