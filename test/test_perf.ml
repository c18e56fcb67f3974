(* Performance-PR guarantees: the execution tiers above the reference
   decoder — the predecoded icache and the basic-block compiler — are
   semantically invisible.

   - A randomized differential test runs generated programs (including
     self-modifying stores into executed code and wrongly-tagged
     injected words) on the cached and reference interpreters in
     lockstep and asserts identical registers, traps, retired counts,
     and memory contents.
   - A three-way sliced-run differential drives the same generated
     programs through [Cpu.run] under all three engines with randomized
     fuel slices, so block boundaries, mid-block fuel exhaustion and
     mid-block faults are all crossed and compared state-for-state.
   - Explicit self-modifying-code tests prove precise invalidation on
     guest and host stores, and that injected code with a wrong
     instruction tag still faults — under every engine.
   - qcheck properties pin the block registry's invalidation contract
     (a store intersecting a registered span flips its validity cell)
     and the sliced-run equivalence.
   - Copy-on-write checkpoints: a model-based qcheck test of the page
     snapshot store, a three-engine lockstep rollback past a code
     patch, pins that a restore rewriting only data pages keeps the
     code's decodes and compiled blocks, and a qcheck model running
     the three engines in lockstep through random code stores,
     checkpoints and restores over code that straddles a page.
   - Page boundaries: decode state is allocated per page, so a block
     that starts in one page and ends in the next must be invalidated
     by a store into, or a restore of, the next page alone; injected
     code must run in a page never decoded before; the reference
     engine must create no decode state.
   - A pinned regression asserts the bench report's demand/monitor
     counters are byte-identical to the committed BENCH_results.json
     baseline. *)

open Nv_vm
module Prng = Nv_util.Prng

(* ------------------------------------------------------------------ *)
(* Differential: cached vs reference interpreter                       *)
(* ------------------------------------------------------------------ *)

let base = 0x10000

let seg_size = 0x4000

let code_len = 48 (* instructions *)

let data_size = 0x1000

let gen_operand prng =
  if Prng.bool prng then Isa.Reg (Prng.int prng 8)
  else Isa.Imm (1 + Prng.int prng 64)

let binops =
  [| Isa.Add; Isa.Sub; Isa.Mul; Isa.Div; Isa.Mod; Isa.And; Isa.Or; Isa.Xor;
     Isa.Shl; Isa.Shr; Isa.Sar |]

let conds =
  [| Isa.Eq; Isa.Ne; Isa.Lt; Isa.Le; Isa.Gt; Isa.Ge; Isa.Ltu; Isa.Leu; Isa.Gtu;
     Isa.Geu |]

(* Register conventions of the generated programs: r0-r7 scratch
   values, r8/r9 pointers into the data region, r10 a pointer into the
   code region (the self-modifying-store target), r13 the stack
   pointer. *)
let gen_instr ?(code_base = base) prng =
  let data_base = code_base + (code_len * Isa.instr_size) in
  let r () = Prng.int prng 8 in
  let data_reg () = 8 + Prng.int prng 2 in
  let small_off () = Prng.int prng 64 in
  let code_target () = code_base + (Isa.instr_size * Prng.int prng code_len) in
  match Prng.int prng 100 with
  | n when n < 18 -> Isa.Mov (r (), Isa.Imm (Prng.int prng 256))
  | n when n < 24 ->
    Isa.Mov (data_reg (), Isa.Imm (data_base + Prng.int prng (data_size - 128)))
  | n when n < 28 ->
    (* Re-aim the self-modifying pointer at some instruction slot. *)
    Isa.Mov (10, Isa.Imm (code_target ()))
  | n when n < 44 -> Isa.Binop (Prng.pick prng binops, r (), r (), gen_operand prng)
  | n when n < 50 -> Isa.Setcc (Prng.pick prng conds, r (), r (), gen_operand prng)
  | n when n < 58 -> Isa.Load (r (), data_reg (), small_off ())
  | n when n < 66 -> Isa.Store (data_reg (), small_off (), r ())
  | n when n < 70 -> Isa.Loadb (r (), data_reg (), small_off ())
  | n when n < 74 -> Isa.Storeb (data_reg (), small_off (), r ())
  | n when n < 80 -> Isa.Br (Prng.pick prng conds, r (), r (), code_target ())
  | n when n < 83 -> Isa.Jmp (code_target ())
  | n when n < 87 -> Isa.Push (r ())
  | n when n < 90 -> Isa.Pop (r ())
  | n when n < 94 ->
    (* Self-modifying store into the code region via r10. *)
    Isa.Store (10, 0, r ())
  | n when n < 96 -> Isa.Call (code_target ())
  | n when n < 97 -> Isa.Ret
  | n when n < 98 -> Isa.Jmpr (r ())
  | _ -> Isa.Syscall

let build_cpu ?(code_base = base) ~engine program =
  let memory = Memory.create ~base ~size:seg_size in
  Array.iteri
    (fun i instr ->
      Memory.store_bytes memory
        ~addr:(code_base + (i * Isa.instr_size))
        (Isa.encode ~tag:0 instr))
    program;
  Memory.set_engine memory engine;
  let cpu = Cpu.create memory ~pc:code_base ~sp:(base + seg_size) in
  let data_base = code_base + (code_len * Isa.instr_size) in
  Cpu.set_reg cpu 8 (data_base + 64);
  Cpu.set_reg cpu 9 (data_base + 512);
  Cpu.set_reg cpu 10 (code_base + (8 * Isa.instr_size));
  (cpu, memory)

let trap_to_string = function
  | None -> "running"
  | Some trap -> Format.asprintf "%a" Cpu.pp_trap trap

let check_lockstep_state ~seed ~step cached reference =
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: pc" seed step)
    (Cpu.pc reference) (Cpu.pc cached);
  for r = 0 to 15 do
    Alcotest.(check int)
      (Printf.sprintf "seed %d step %d: r%d" seed step r)
      (Cpu.reg reference r) (Cpu.reg cached r)
  done;
  Alcotest.(check int)
    (Printf.sprintf "seed %d step %d: retired" seed step)
    (Cpu.instructions_retired reference)
    (Cpu.instructions_retired cached)

let run_differential ~seed ~steps =
  let prng = Prng.create ~seed in
  let program = Array.init code_len (fun _ -> gen_instr prng) in
  let cached_cpu, cached_mem = build_cpu ~engine:Memory.Icache program in
  let ref_cpu, ref_mem = build_cpu ~engine:Memory.Reference program in
  let rec go step =
    if step < steps then begin
      let ct = Cpu.step cached_cpu in
      let rt = Cpu.step ref_cpu in
      Alcotest.(check string)
        (Printf.sprintf "seed %d step %d: trap" seed step)
        (trap_to_string rt) (trap_to_string ct);
      check_lockstep_state ~seed ~step cached_cpu ref_cpu;
      match ct with
      | None | Some Cpu.Syscall_trap -> go (step + 1)
      | Some Cpu.Halt_trap | Some (Cpu.Fault_trap _) -> ()
    end
  in
  go 0;
  let dump m = Bytes.to_string (Memory.load_bytes m ~addr:base ~len:seg_size) in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: memory identical" seed)
    true
    (String.equal (dump cached_mem) (dump ref_mem))

let test_differential_random_programs () =
  for seed = 1 to 40 do
    run_differential ~seed ~steps:600
  done

(* ------------------------------------------------------------------ *)
(* Three-way sliced-run differential: reference / icache / block       *)
(* ------------------------------------------------------------------ *)

(* Drive [Cpu.run] rather than [Cpu.step], since the block engine only
   engages through [run]. Fuel is sliced randomly (1..9 instructions),
   so slice boundaries constantly land mid-block, forcing the block
   dispatcher into its stepping fallback; generated programs also store
   into their own code through r10 (with arbitrary register values, so
   the rewritten word's tag byte is usually wrong — exercising
   wrong-tag injection against compiled blocks) and fault routinely
   (jmpr through small scratch values). Every slice must leave all
   three engines in bit-identical architectural state. *)
let outcome_to_string = function
  | Cpu.Trapped trap -> trap_to_string (Some trap)
  | Cpu.Out_of_fuel -> "out of fuel"

let run_differential_engines ~seed ~slices =
  let prng = Prng.create ~seed in
  let program = Array.init code_len (fun _ -> gen_instr prng) in
  let ref_cpu, ref_mem = build_cpu ~engine:Memory.Reference program in
  let ic_cpu, ic_mem = build_cpu ~engine:Memory.Icache program in
  let bl_cpu, bl_mem = build_cpu ~engine:Memory.Block program in
  let rec go slice =
    if slice < slices then begin
      let fuel = 1 + Prng.int prng 9 in
      let ro = Cpu.run ref_cpu ~fuel in
      let io = Cpu.run ic_cpu ~fuel in
      let bo = Cpu.run bl_cpu ~fuel in
      Alcotest.(check string)
        (Printf.sprintf "seed %d slice %d: icache outcome" seed slice)
        (outcome_to_string ro) (outcome_to_string io);
      Alcotest.(check string)
        (Printf.sprintf "seed %d slice %d: block outcome" seed slice)
        (outcome_to_string ro) (outcome_to_string bo);
      check_lockstep_state ~seed ~step:slice ic_cpu ref_cpu;
      check_lockstep_state ~seed ~step:slice bl_cpu ref_cpu;
      match ro with
      | Cpu.Out_of_fuel | Cpu.Trapped Cpu.Syscall_trap -> go (slice + 1)
      | Cpu.Trapped Cpu.Halt_trap | Cpu.Trapped (Cpu.Fault_trap _) -> ()
    end
  in
  go 0;
  let dump m = Bytes.to_string (Memory.load_bytes m ~addr:base ~len:seg_size) in
  let ref_dump = dump ref_mem in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: icache memory identical" seed)
    true
    (String.equal ref_dump (dump ic_mem));
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: block memory identical" seed)
    true
    (String.equal ref_dump (dump bl_mem))

let test_differential_engines () =
  for seed = 100 to 140 do
    run_differential_engines ~seed ~slices:200
  done

(* ------------------------------------------------------------------ *)
(* Self-modifying code: precise invalidation                           *)
(* ------------------------------------------------------------------ *)

let le_word b pos = Int32.to_int (Bytes.get_int32_le b pos) land 0xFFFFFFFF

(* A guest program that executes an instruction (filling the decode
   cache), overwrites that instruction with its own stores, jumps back,
   and must observe the new instruction. A stale cache would loop
   forever. The replacement is encoded with [patch_tag], so the same
   program doubles as the code-injection probe: a wrong tag must fault
   exactly as without the cache. *)
let self_modifying_source ~patch_tag =
  let patch = Isa.encode ~tag:patch_tag (Isa.Mov (3, Isa.Imm 42)) in
  Printf.sprintf
    {|
      la r1, patch
      mov r4, #42
    patch:
      mov r3, #1
      breq r3, r4, done
      mov r2, #%d
      st [r1], r2
      mov r2, #%d
      st [r1+4], r2
      jmp patch
    done:
      halt
    |}
    (le_word patch 0) (le_word patch 4)

let all_engines = [ Memory.Reference; Memory.Icache; Memory.Block ]

let load_source ?(tag = 0) ~engine source =
  let loaded = Image.load (Asm.assemble source) ~base:0x1000 ~size:0x10000 ~tag in
  Memory.set_engine loaded.Image.memory engine;
  loaded

let test_smc_guest_store_invalidates () =
  List.iter
    (fun engine ->
      let loaded = load_source ~engine (self_modifying_source ~patch_tag:0) in
      (match Cpu.run loaded.Image.cpu ~fuel:1000 with
      | Cpu.Trapped Cpu.Halt_trap -> ()
      | Cpu.Trapped trap -> Alcotest.failf "unexpected trap: %a" Cpu.pp_trap trap
      | Cpu.Out_of_fuel -> Alcotest.fail "stale decode cache: patched loop never exited");
      Alcotest.(check int) "patched instruction executed" 42 (Cpu.reg loaded.Image.cpu 3))
    all_engines

let test_smc_injected_wrong_tag_faults () =
  (* Variant expects tag 1; the self-patch writes a tag-0 instruction
     (the attacker does not know the tag), so re-fetching the patched
     slot must raise Bad_tag — identically under every engine. *)
  List.iter
    (fun engine ->
      let loaded = load_source ~tag:1 ~engine (self_modifying_source ~patch_tag:0) in
      match Cpu.run loaded.Image.cpu ~fuel:1000 with
      | Cpu.Trapped (Cpu.Fault_trap (Cpu.Bad_tag { found = 0; expected = 1; _ })) -> ()
      | Cpu.Trapped trap -> Alcotest.failf "expected Bad_tag, got %a" Cpu.pp_trap trap
      | Cpu.Out_of_fuel -> Alcotest.fail "expected Bad_tag, ran out of fuel")
    all_engines

let test_smc_host_store_invalidates () =
  (* Warm the cache by running to halt, then overwrite the first
     instruction from the host side and re-run. *)
  let loaded = load_source ~engine:Memory.Block "mov r1, #1\nhalt" in
  let { Image.cpu; memory; layout } = loaded in
  (match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | _ -> Alcotest.fail "first run should halt");
  Alcotest.(check int) "original value" 1 (Cpu.reg cpu 1);
  Memory.store_bytes memory ~addr:layout.Image.code_start
    (Isa.encode ~tag:0 (Isa.Mov (1, Isa.Imm 2)));
  Cpu.set_pc cpu layout.Image.code_start;
  (match Cpu.run cpu ~fuel:10 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | _ -> Alcotest.fail "second run should halt");
  Alcotest.(check int) "patched value observed" 2 (Cpu.reg cpu 1)

(* ------------------------------------------------------------------ *)
(* qcheck properties: block-registry invalidation and run equivalence  *)
(* ------------------------------------------------------------------ *)

(* A store intersecting a registered block's slot span must flip the
   block's shared validity cell (and count an invalidation); a store
   anywhere else must leave it alone. This is the whole contract
   between [Memory]'s store path and the block compiler — if it holds,
   a compiled block can never execute stale bytes. *)
let prop_store_invalidates_registered_span =
  let slots = seg_size / Isa.instr_size in
  QCheck.Test.make ~name:"store into a registered span invalidates the block"
    ~count:1000
    QCheck.(
      quad
        (int_bound (slots - Memory.max_block_slots - 1))
        (int_range 1 Memory.max_block_slots)
        (int_bound (seg_size - 5))
        bool)
    (fun (slot, span, store_off, word) ->
      let memory = Memory.create ~base ~size:seg_size in
      let valid = Memory.register_block memory ~slot ~slots:span in
      let len = if word then 4 else 1 in
      if word then Memory.store_word memory (base + store_off) 0xDEAD
      else Memory.store_byte memory (base + store_off) 0xAD;
      let lo = store_off / Isa.instr_size in
      let hi = (store_off + len - 1) / Isa.instr_size in
      let intersects = hi >= slot && lo < slot + span in
      !valid = not intersects
      && Memory.block_invalidations memory = (if intersects then 1 else 0))

(* The sliced-run differential as a property over the program seed:
   whatever program the seed generates — including mid-block faults,
   fuel slices ending inside a block, and self-modifying stores — the
   three engines stay state-identical. *)
let prop_engines_agree_under_slicing =
  QCheck.Test.make ~name:"reference/icache/block agree under random fuel slicing"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      run_differential_engines ~seed ~slices:80;
      true)

(* ------------------------------------------------------------------ *)
(* Copy-on-write checkpoints: model-based test of the snapshot store    *)
(* ------------------------------------------------------------------ *)

(* Three pages and a short fourth, so the partial last page image is
   exercised too. Two segments of this size: a restore may take a
   snapshot from the other one (a sibling restore). *)
let cow_size = (3 * Memory.page_size) + 1000

type cow_op =
  | Store_byte of int * int * int  (* segment, offset, value *)
  | Store_word of int * int * int
  | Store_bytes of int * int * int * int  (* segment, offset, length, fill *)
  | Store_cstring of int * int * int * int  (* segment, offset, length, fill *)
  | Snapshot of int
  | Restore of int * int  (* segment, kept-snapshot choice *)

let show_cow_op = function
  | Store_byte (s, o, v) -> Printf.sprintf "store_byte s%d %d %d" s o v
  | Store_word (s, o, v) -> Printf.sprintf "store_word s%d %d %#x" s o v
  | Store_bytes (s, o, n, f) -> Printf.sprintf "store_bytes s%d %d len=%d fill=%d" s o n f
  | Store_cstring (s, o, n, f) ->
    Printf.sprintf "store_cstring s%d %d len=%d fill=%d" s o n f
  | Snapshot s -> Printf.sprintf "snapshot s%d" s
  | Restore (s, k) -> Printf.sprintf "restore s%d kept#%d" s k

let gen_cow_op =
  let open QCheck.Gen in
  let seg = int_bound 1 in
  (* A word that straddles an interior page boundary by 1-3 bytes. *)
  let straddle =
    map2 (fun p k -> (p * Memory.page_size) - k) (int_range 1 3) (int_range 1 3)
  in
  let multi_page =
    int_range 1 ((2 * Memory.page_size) + 100) >>= fun len ->
    map (fun off -> (off, len)) (int_bound (cow_size - len))
  in
  frequency
    [
      ( 4,
        map3
          (fun s o v -> Store_byte (s, o, v))
          seg
          (int_bound (cow_size - 1))
          (int_bound 255) );
      ( 4,
        map3
          (fun s o v -> Store_word (s, o, v))
          seg
          (oneof [ int_bound (cow_size - 4); straddle ])
          (int_bound 0xFFFF_FFFF) );
      (2, map3 (fun s (o, n) f -> Store_bytes (s, o, n, f)) seg multi_page (int_bound 255));
      (* A cstring of length n occupies n + 1 bytes with its NUL. *)
      ( 2,
        map3
          (fun s (o, n) f -> Store_cstring (s, o, n - 1, f))
          seg multi_page (int_bound 255) );
      (2, map (fun s -> Snapshot s) seg);
      (2, map2 (fun s k -> Restore (s, k)) seg (int_bound 1000));
    ]

let fill_bytes len fill = Bytes.init len (fun i -> Char.chr ((fill + (i * 7)) land 0xFF))

(* Never NUL, so the stored string is exactly [len] bytes long. *)
let fill_string len fill = String.init len (fun i -> Char.chr (1 + ((fill + i) mod 255)))

(* Run [ops] on two segments and a plain-[Bytes] model of each; after
   every step both segments must equal their models. Kept snapshots
   carry a copy of the bytes they captured. At the end every kept
   snapshot is restored, in turn, into both segments (with a store in
   between, so each restore starts from a dirty page) and must give back
   exactly those bytes. *)
let run_cow_model ops =
  let segs = Array.init 2 (fun _ -> Memory.create ~base ~size:cow_size) in
  let models = Array.init 2 (fun _ -> Bytes.make cow_size '\000') in
  let kept = ref [] in
  let agrees s =
    Bytes.equal (Memory.load_bytes segs.(s) ~addr:base ~len:cow_size) models.(s)
  in
  let restore s (snap, captured) =
    Memory.restore segs.(s) snap;
    Bytes.blit captured 0 models.(s) 0 cow_size
  in
  let apply = function
    | Store_byte (s, o, v) ->
      Memory.store_byte segs.(s) (base + o) v;
      Bytes.set models.(s) o (Char.chr v)
    | Store_word (s, o, v) ->
      Memory.store_word segs.(s) (base + o) v;
      Bytes.set_int32_le models.(s) o (Int32.of_int v)
    | Store_bytes (s, o, n, f) ->
      let data = fill_bytes n f in
      Memory.store_bytes segs.(s) ~addr:(base + o) data;
      Bytes.blit data 0 models.(s) o n
    | Store_cstring (s, o, n, f) ->
      let str = fill_string n f in
      Memory.store_cstring segs.(s) ~addr:(base + o) str;
      Bytes.blit_string str 0 models.(s) o n;
      Bytes.set models.(s) (o + n) '\000'
    | Snapshot s -> kept := (Memory.snapshot segs.(s), Bytes.copy models.(s)) :: !kept
    | Restore (s, k) -> (
      match !kept with
      | [] -> ()
      | l -> restore s (List.nth l (k mod List.length l)))
  in
  List.iteri
    (fun step op ->
      apply op;
      if not (agrees 0 && agrees 1) then
        QCheck.Test.fail_reportf "step %d (%s): segment differs from model" step
          (show_cow_op op))
    ops;
  List.iteri
    (fun i ((_, captured) as kept_snap) ->
      for s = 0 to 1 do
        Memory.store_byte segs.(s) (base + (i * 997 mod cow_size)) (i + 1);
        restore s kept_snap;
        if not (Bytes.equal (Memory.load_bytes segs.(s) ~addr:base ~len:cow_size) captured)
        then QCheck.Test.fail_reportf "kept snapshot %d no longer restores into s%d" i s
      done)
    !kept;
  true

let prop_cow_snapshots_match_model =
  QCheck.Test.make ~name:"snapshot store agrees with a plain-bytes model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_cow_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_cow_op))
    run_cow_model

(* ------------------------------------------------------------------ *)
(* Rollback: engines agree, and restore invalidates only what changed  *)
(* ------------------------------------------------------------------ *)

(* After the checkpoint (the first syscall) the guest runs [target]
   once, patches it to [mov r3, #42], runs the patched copy and halts
   with r5 = 43. Rolled back to the checkpoint, the code page holds the
   original instruction again, so the re-run must also start with
   [mov r3, #1]; a decode or compiled block kept across the restore
   would run the patch first and halt with r5 = 42. *)
let rollback_source =
  let patch = Isa.encode ~tag:0 (Isa.Mov (3, Isa.Imm 42)) in
  Printf.sprintf
    {|
      la r1, target
      mov r4, #42
      mov r5, #0
      syscall
    target:
      mov r3, #1
      add r5, r5, r3
      breq r3, r4, done
      mov r2, #%d
      st [r1], r2
      mov r2, #%d
      st [r1+4], r2
      jmp target
    done:
      push r5
      halt
    |}
    (le_word patch 0) (le_word patch 4)

let run_to_checkpoint cpu =
  match Cpu.run cpu ~fuel:100 with
  | Cpu.Trapped Cpu.Syscall_trap -> ()
  | outcome ->
    Alcotest.failf "expected the checkpoint syscall, got %s" (outcome_to_string outcome)

let test_rollback_engines_agree () =
  let prng = Prng.create ~seed:7 in
  let loaded = List.map (fun engine -> load_source ~engine rollback_source) all_engines in
  let cpu l = l.Image.cpu in
  let reference = cpu (List.hd loaded) in
  List.iter (fun l -> run_to_checkpoint (cpu l)) loaded;
  let snaps = List.map Image.snapshot loaded in
  let check_all ~step =
    List.iter (fun l -> check_lockstep_state ~seed:7 ~step (cpu l) reference) loaded
  in
  let halt = trap_to_string (Some Cpu.Halt_trap) in
  let retired = ref [] in
  for round = 0 to 2 do
    (* Sliced fuel, so slices end inside blocks and around the patching
       stores. *)
    let rec go slice =
      let fuel = 1 + Prng.int prng 5 in
      let outcomes = List.map (fun l -> outcome_to_string (Cpu.run (cpu l) ~fuel)) loaded in
      List.iter
        (Alcotest.(check string)
           (Printf.sprintf "round %d slice %d: outcome" round slice)
           (List.hd outcomes))
        outcomes;
      check_all ~step:((round * 1000) + slice);
      if List.hd outcomes <> halt then go (slice + 1)
    in
    go 0;
    Alcotest.(check int) (Printf.sprintf "round %d: original, then patched" round) 43
      (Cpu.reg reference 5);
    retired := Cpu.instructions_retired reference :: !retired;
    List.iter2 Image.restore loaded snaps;
    check_all ~step:((round * 1000) + 999);
    Alcotest.(check int) "r5 rolled back" 0 (Cpu.reg reference 5)
  done;
  List.iter
    (Alcotest.(check int) "every re-run retires the same count" (List.hd !retired))
    !retired

(* After the checkpoint this guest stores only into its stack, at the
   top of the segment: the code page is never written. *)
let data_only_source =
  {|
      mov r5, #0
      mov r7, #50
      syscall
    loop:
      add r5, r5, #1
      push r5
      pop r6
      brlt r5, r7, loop
      halt
    |}

let run_to_halt cpu =
  match Cpu.run cpu ~fuel:10_000 with
  | Cpu.Trapped Cpu.Halt_trap -> ()
  | outcome -> Alcotest.failf "expected halt, got %s" (outcome_to_string outcome)

(* Load, run to the checkpoint, snapshot, run to halt (filling the
   decode cache and the block cache), then [touch] the segment and roll
   back. Returns the loaded image, the block invalidations counted
   before the restore, and the address of [loop]. *)
let rolled_back ~engine ~touch =
  let loaded = load_source ~engine data_only_source in
  let { Image.cpu; memory; _ } = loaded in
  run_to_checkpoint cpu;
  let snap = Image.snapshot loaded in
  run_to_halt cpu;
  touch loaded;
  let before = Memory.block_invalidations memory in
  Image.restore loaded snap;
  (loaded, before, Image.abs_symbol loaded "loop")

(* Whether the decode of [addr] survived: overwrite its bytes through
   the raw block-compiler view without the store-path maintenance (a
   deliberate breach of [Memory.bytes]' contract that makes a cached
   decode observable). A cached slot still yields the old instruction;
   a dropped one decodes the new bytes. *)
let decode_cached memory addr =
  let off = addr - Memory.base memory in
  Bytes.blit (Isa.encode ~tag:0 (Isa.Mov (5, Isa.Imm 99))) 0 (Memory.bytes memory) off
    Isa.instr_size;
  match Memory.fetch_decoded memory addr with
  | Ok (_, Isa.Mov (5, Isa.Imm 99)) -> false
  | Ok _ -> true
  | Error _ -> Alcotest.fail "probe decode failed"

let no_touch _ = ()

(* A host store onto the code page after the checkpoint: the restore
   must rewrite that page. *)
let touch_code { Image.memory; layout; _ } =
  let halt = Isa.encode ~tag:0 Isa.Halt in
  Memory.store_bytes memory ~addr:(layout.Image.code_start + 0x800) halt

let test_restore_keeps_code_decodes () =
  let loaded, _, loop = rolled_back ~engine:Memory.Icache ~touch:no_touch in
  Alcotest.(check bool) "code decodes kept over a data-only restore" true
    (decode_cached loaded.Image.memory loop);
  let loaded, _, loop = rolled_back ~engine:Memory.Icache ~touch:touch_code in
  Alcotest.(check bool) "code decodes dropped when the code page is restored" false
    (decode_cached loaded.Image.memory loop)

let test_restore_keeps_code_blocks () =
  let loaded, before, _ = rolled_back ~engine:Memory.Block ~touch:no_touch in
  let { Image.cpu; memory; _ } = loaded in
  let compiled, hits, _ = Cpu.block_stats cpu in
  Alcotest.(check bool) "blocks were compiled" true (compiled > 0);
  Alcotest.(check int) "data-only restore invalidates no block" before
    (Memory.block_invalidations memory);
  run_to_halt cpu;
  let compiled', hits', _ = Cpu.block_stats cpu in
  Alcotest.(check int) "re-run compiles nothing new" compiled compiled';
  Alcotest.(check bool) "re-run dispatches cached blocks" true (hits' > hits);
  let loaded, before, _ = rolled_back ~engine:Memory.Block ~touch:touch_code in
  Alcotest.(check bool) "code-page restore invalidates its blocks" true
    (Memory.block_invalidations loaded.Image.memory > before)

(* ------------------------------------------------------------------ *)
(* Page boundaries: decode state is kept per page                      *)
(* ------------------------------------------------------------------ *)

(* Two slots before the end of page 0: a block entered here ends in
   page 1, so its registration reaches into that page's decode state. *)
let straddle_entry = base + Memory.page_size - (2 * Isa.instr_size)

let page_of memory addr = (addr - Memory.base memory) lsr Memory.page_shift

let store_instr memory addr instr =
  Memory.store_bytes memory ~addr (Isa.encode ~tag:0 instr)

(* The block's first store rewrites the first instruction of page 1,
   which the same block covers: the in-flight execution must bail out
   after the store and run the new instruction, not the compiled one. *)
let test_straddle_store_mid_block () =
  let patch = Isa.encode ~tag:0 (Isa.Mov (3, Isa.Imm 42)) in
  let program =
    [| Isa.Store (1, 0, 2); Isa.Store (1, 4, 4); Isa.Mov (3, Isa.Imm 1); Isa.Halt |]
  in
  let run engine =
    let cpu, memory = build_cpu ~code_base:straddle_entry ~engine program in
    Cpu.set_reg cpu 1 (straddle_entry + (2 * Isa.instr_size));
    Cpu.set_reg cpu 2 (le_word patch 0);
    Cpu.set_reg cpu 4 (le_word patch 4);
    run_to_halt cpu;
    Alcotest.(check int) "patched instruction executed" 42 (Cpu.reg cpu 3);
    (cpu, memory)
  in
  let reference, _ = run Memory.Reference in
  List.iter
    (fun engine ->
      let cpu, _ = run engine in
      check_lockstep_state ~seed:0 ~step:0 cpu reference)
    [ Memory.Icache; Memory.Block ];
  let _, memory = run Memory.Block in
  Alcotest.(check bool) "the store invalidated the straddling block" true
    (Memory.block_invalidations memory >= 1);
  Alcotest.(check bool) "page 1 holds the block's tail" true
    (Memory.page_decoded memory (page_of memory (straddle_entry + Memory.page_size)))

let straddle_program =
  [| Isa.Mov (3, Isa.Imm 1); Isa.Mov (5, Isa.Imm 2); Isa.Mov (6, Isa.Imm 3); Isa.Halt |]

(* The address of [straddle_program]'s [mov r6, #3], the first
   instruction of page 1. *)
let straddle_tail = straddle_entry + (2 * Isa.instr_size)

let test_straddle_host_store () =
  let cpu, memory =
    build_cpu ~code_base:straddle_entry ~engine:Memory.Block straddle_program
  in
  run_to_halt cpu;
  let compiled, _, _ = Cpu.block_stats cpu in
  Alcotest.(check int) "one block compiled" 1 compiled;
  store_instr memory straddle_tail (Isa.Mov (6, Isa.Imm 9));
  Alcotest.(check int) "a store into page 1 invalidates the block" 1
    (Memory.block_invalidations memory);
  Cpu.set_pc cpu straddle_entry;
  run_to_halt cpu;
  Alcotest.(check int) "the rewritten tail runs" 9 (Cpu.reg cpu 6)

(* A snapshot holds the original program; the tail in page 1 is then
   patched and the block compiled over the patch. The restore rewrites
   page 1 only, so it must drop that page's decode state and invalidate
   the block entered in page 0 that reaches into it: re-running must
   see the original [mov r6, #3] again. *)
let test_straddle_restore () =
  let run engine =
    let cpu, memory = build_cpu ~code_base:straddle_entry ~engine straddle_program in
    let snap = Memory.snapshot memory in
    store_instr memory straddle_tail (Isa.Mov (6, Isa.Imm 9));
    run_to_halt cpu;
    Alcotest.(check int) "patched tail ran" 9 (Cpu.reg cpu 6);
    let before = Memory.block_invalidations memory in
    Memory.restore memory snap;
    let p = page_of memory straddle_tail in
    Alcotest.(check bool) "page 1 decode state dropped" false
      (Memory.page_decoded memory p);
    Alcotest.(check bool) "page 0 decode state kept" (engine <> Memory.Reference)
      (Memory.page_decoded memory (p - 1));
    let dropped = Memory.block_invalidations memory - before in
    Cpu.set_pc cpu straddle_entry;
    run_to_halt cpu;
    Alcotest.(check int) "the restored tail runs" 3 (Cpu.reg cpu 6);
    dropped
  in
  Alcotest.(check int) "icache: no blocks" 0 (run Memory.Icache);
  Alcotest.(check int) "reference: no blocks" 0 (run Memory.Reference);
  Alcotest.(check int) "block: the straddling block is invalidated" 1 (run Memory.Block)

(* The guest pushes [mov r5, #77; halt] onto its stack and jumps to it.
   The stack page holds no decode state until the jump, and the
   injected code must run under every engine; the reference engine
   never creates decode state at all. *)
let test_injected_stack_code () =
  let mov = Isa.encode ~tag:0 (Isa.Mov (5, Isa.Imm 77)) in
  let halt = Isa.encode ~tag:0 Isa.Halt in
  let program =
    [|
      Isa.Mov (2, Isa.Imm (le_word mov 0));
      Isa.Mov (3, Isa.Imm (le_word mov 4));
      Isa.Mov (6, Isa.Imm (le_word halt 0));
      Isa.Mov (7, Isa.Imm (le_word halt 4));
      Isa.Push 7;
      Isa.Push 6;
      Isa.Push 3;
      Isa.Push 2;
      Isa.Jmpr 13;
    |]
  in
  List.iter
    (fun engine ->
      let name = Memory.engine_to_string engine in
      let cpu, memory = build_cpu ~engine program in
      let stack_page = page_of memory (base + seg_size - 1) in
      (match Cpu.run cpu ~fuel:(Array.length program) with
      | Cpu.Out_of_fuel -> ()
      | outcome ->
        Alcotest.failf "%s: %s before the jump" name (outcome_to_string outcome));
      Alcotest.(check bool) (name ^ ": stack page never decoded") false
        (Memory.page_decoded memory stack_page);
      run_to_halt cpu;
      Alcotest.(check int) (name ^ ": injected code ran") 77 (Cpu.reg cpu 5);
      Alcotest.(check bool) (name ^ ": stack page decoded") (engine <> Memory.Reference)
        (Memory.page_decoded memory stack_page);
      if engine = Memory.Reference then
        Alcotest.(check int) "reference: no page holds decode state" 0
          (Memory.decoded_pages memory))
    all_engines

(* Model-based lockstep across a page boundary: a random program whose
   code straddles pages 0 and 1 runs under all three engines while
   random host stores rewrite one to four of its instructions at a time
   (sometimes across the boundary, sometimes with a wrong tag) and
   random checkpoints are taken and restored. After every operation the
   three machines must agree on outcome, registers, pc, retired count
   and every byte of memory. *)
let lockstep_code_base = base + Memory.page_size - (code_len / 2 * Isa.instr_size)

type lockstep_op =
  | Run of int  (* fuel *)
  | Code_store of int * int * int  (* first code slot, instructions, seed *)
  | Checkpoint
  | Rollback of int  (* kept-checkpoint choice *)

let show_lockstep_op = function
  | Run fuel -> Printf.sprintf "run %d" fuel
  | Code_store (k, n, seed) -> Printf.sprintf "code_store slot %d x%d seed %d" k n seed
  | Checkpoint -> "checkpoint"
  | Rollback k -> Printf.sprintf "rollback kept#%d" k

let gen_lockstep_op =
  let open QCheck.Gen in
  frequency
    [
      (6, map (fun fuel -> Run fuel) (int_range 1 9));
      (* Up to four instructions in one store; half of the stores start
         just before the page boundary (code slot [code_len / 2]), so
         many of them cross it. *)
      ( 3,
        map3
          (fun k n seed -> Code_store (k, min n (code_len - k), seed))
          (oneof
             [
               int_bound (code_len - 1);
               int_range ((code_len / 2) - 3) ((code_len / 2) - 1);
             ])
          (int_range 1 4)
          (int_bound 1_000_000) );
      (1, return Checkpoint);
      (1, map (fun k -> Rollback k) (int_bound 1000));
    ]

let cpu_state cpu =
  String.concat " "
    (List.map string_of_int
       (Cpu.pc cpu :: Cpu.instructions_retired cpu :: List.init 16 (Cpu.reg cpu)))

let run_lockstep_model (seed, ops) =
  let prng = Prng.create ~seed in
  let code_base = lockstep_code_base in
  let program = Array.init code_len (fun _ -> gen_instr ~code_base prng) in
  let machines =
    List.map (fun engine -> build_cpu ~code_base ~engine program) all_engines
  in
  let kept = ref [] in
  let apply = function
    | Run fuel ->
      List.map (fun (cpu, _) -> outcome_to_string (Cpu.run cpu ~fuel)) machines
    | Code_store (k, n, seed) ->
      let prng = Prng.create ~seed in
      let tag = if seed mod 5 = 0 then 1 else 0 in
      let code =
        Bytes.concat Bytes.empty
          (List.init n (fun _ -> Isa.encode ~tag (gen_instr ~code_base prng)))
      in
      List.iter
        (fun (_, memory) ->
          Memory.store_bytes memory ~addr:(code_base + (k * Isa.instr_size)) code)
        machines;
      []
    | Checkpoint ->
      kept :=
        List.map (fun (cpu, memory) -> (Cpu.snapshot cpu, Memory.snapshot memory)) machines
        :: !kept;
      []
    | Rollback k ->
      (match !kept with
      | [] -> ()
      | l ->
        List.iter2
          (fun (cpu, memory) (cs, ms) ->
            Cpu.restore cpu cs;
            Memory.restore memory ms)
          machines
          (List.nth l (k mod List.length l)));
      []
  in
  let agree xs = List.for_all (String.equal (List.hd xs)) xs in
  List.iteri
    (fun step op ->
      let outcomes = apply op in
      let states = List.map (fun (cpu, _) -> cpu_state cpu) machines in
      let dumps =
        List.map
          (fun (_, m) -> Bytes.to_string (Memory.load_bytes m ~addr:base ~len:seg_size))
          machines
      in
      if outcomes <> [] && not (agree outcomes) then
        QCheck.Test.fail_reportf "step %d (%s): outcomes %s" step (show_lockstep_op op)
          (String.concat " / " outcomes);
      if not (agree states) then
        QCheck.Test.fail_reportf "step %d (%s): states\n%s" step (show_lockstep_op op)
          (String.concat "\n" states);
      if not (agree dumps) then
        QCheck.Test.fail_reportf "step %d (%s): memories differ" step (show_lockstep_op op))
    ops;
  let _, reference_memory = List.hd machines in
  Memory.decoded_pages reference_memory = 0

let prop_lockstep_across_page_boundary =
  QCheck.Test.make ~name:"three engines agree over code stores and restores across a page"
    ~count:200
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed
           (String.concat "; " (List.map show_lockstep_op ops)))
       QCheck.Gen.(pair (int_bound 1_000_000) (list_size (int_range 1 60) gen_lockstep_op)))
    run_lockstep_model

(* ------------------------------------------------------------------ *)
(* Pinned bench counters                                               *)
(* ------------------------------------------------------------------ *)

(* These constants are the demand/monitor numbers of the committed
   BENCH_results.json (bench report, 12 requests per configuration).
   The fast path must not move them: they count guest-visible work
   (instructions, rendezvous, checks), not host time. *)
let pinned_bench config ~instructions ~demand_rendezvous ~monitor_rendezvous
    ~checks_performed =
  match Nv_httpd.Deploy.build config with
  | Error e -> Alcotest.fail e
  | Ok sys -> (
    match Nv_workload.Measure.profile ~requests:12 sys with
    | Error e -> Alcotest.fail e
    | Ok samples ->
      let steady = Array.sub samples 1 (Array.length samples - 1) in
      let demand = Nv_workload.Measure.mean_demand steady in
      Alcotest.(check int)
        "demand instructions" instructions demand.Nv_workload.Measure.instructions;
      Alcotest.(check int)
        "demand rendezvous" demand_rendezvous demand.Nv_workload.Measure.rendezvous;
      let reg = Nv_core.Nsystem.metrics sys in
      let counter name =
        Option.value ~default:0 (Nv_util.Metrics.find_counter reg name)
      in
      Alcotest.(check int)
        "monitor.rendezvous" monitor_rendezvous (counter "monitor.rendezvous");
      Alcotest.(check int)
        "monitor.checks.performed" checks_performed
        (counter "monitor.checks.performed");
      Alcotest.(check int) "monitor.checks.failed" 0 (counter "monitor.checks.failed"))

let test_pinned_two_variant_address () =
  pinned_bench Nv_httpd.Deploy.Two_variant_address ~instructions:13498
    ~demand_rendezvous:20 ~monitor_rendezvous:252 ~checks_performed:806

let test_pinned_two_variant_uid () =
  pinned_bench Nv_httpd.Deploy.Two_variant_uid ~instructions:13504
    ~demand_rendezvous:21 ~monitor_rendezvous:267 ~checks_performed:872

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "nv_perf"
    [
      ( "differential",
        [
          Alcotest.test_case "cached vs reference interpreter (randomized)" `Quick
            test_differential_random_programs;
          Alcotest.test_case "reference vs icache vs block, sliced runs" `Quick
            test_differential_engines;
        ] );
      ( "block properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_store_invalidates_registered_span; prop_engines_agree_under_slicing ] );
      ( "self-modifying code",
        [
          Alcotest.test_case "guest store invalidates decode cache" `Quick
            test_smc_guest_store_invalidates;
          Alcotest.test_case "injected wrong-tag code still faults" `Quick
            test_smc_injected_wrong_tag_faults;
          Alcotest.test_case "host store invalidates decode cache" `Quick
            test_smc_host_store_invalidates;
        ] );
      ( "checkpoints",
        [
          QCheck_alcotest.to_alcotest prop_cow_snapshots_match_model;
          Alcotest.test_case "rollback past a code patch, three engines" `Quick
            test_rollback_engines_agree;
          Alcotest.test_case "data-only restore keeps code decodes" `Quick
            test_restore_keeps_code_decodes;
          Alcotest.test_case "data-only restore keeps compiled blocks" `Quick
            test_restore_keeps_code_blocks;
          QCheck_alcotest.to_alcotest prop_lockstep_across_page_boundary;
        ] );
      ( "page boundaries",
        [
          Alcotest.test_case "store mid-block into the next page" `Quick
            test_straddle_store_mid_block;
          Alcotest.test_case "host store into the next page" `Quick
            test_straddle_host_store;
          Alcotest.test_case "restore of the next page only" `Quick test_straddle_restore;
          Alcotest.test_case "injected code in an undecoded stack page" `Quick
            test_injected_stack_code;
        ] );
      ( "pinned bench counters",
        [
          Alcotest.test_case "config3 (address partition)" `Quick
            test_pinned_two_variant_address;
          Alcotest.test_case "config4 (uid diversity)" `Quick
            test_pinned_two_variant_uid;
        ] );
    ]
