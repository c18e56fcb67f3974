(* Tests for nv_core: reexpression properties (Table 1), variations,
   the monitor's normal-equivalence and detection behaviour (Sections
   2.2/2.3), detection syscalls (Table 2), and unshared files (3.4). *)

open Nv_core
module Word = Nv_vm.Word
module Cpu = Nv_vm.Cpu
module Memory = Nv_vm.Memory
module Image = Nv_vm.Image
module Kernel = Nv_os.Kernel
module Socket = Nv_os.Socket
module Vfs = Nv_os.Vfs

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let full_word_gen =
  QCheck.map
    (fun (hi, lo) -> Word.mask ((hi lsl 16) lor lo))
    QCheck.(pair (int_bound 0xFFFF) (int_bound 0xFFFF))

(* ------------------------------------------------------------------ *)
(* Reexpression properties                                             *)
(* ------------------------------------------------------------------ *)

let test_reexpr_identity () =
  Alcotest.(check int) "encode" 42 (Reexpression.identity.Reexpression.encode 42);
  Alcotest.(check int) "decode" 42 (Reexpression.identity.Reexpression.decode 42)

let test_reexpr_paper_values () =
  let r1 = Reexpression.uid_for_variant 1 in
  (* In variant 1, 0x7FFFFFFF represents root (Section 3.2). *)
  Alcotest.(check int) "root encodes to key" 0x7FFFFFFF (r1.Reexpression.encode 0);
  Alcotest.(check int) "key decodes to root" 0 (r1.Reexpression.decode 0x7FFFFFFF);
  Alcotest.(check int) "www" (33 lxor 0x7FFFFFFF) (r1.Reexpression.encode 33)

let prop_reexpr_inverse =
  QCheck.Test.make ~name:"inverse property holds for both variants" ~count:1000
    full_word_gen
    (fun x ->
      Reexpression.inverse_holds (Reexpression.uid_for_variant 0) x
      && Reexpression.inverse_holds (Reexpression.uid_for_variant 1) x)

let prop_reexpr_disjoint =
  QCheck.Test.make ~name:"disjointness: R0^-1(x) <> R1^-1(x) for every x" ~count:1000
    full_word_gen
    (fun x ->
      Reexpression.disjoint_at (Reexpression.uid_for_variant 0)
        (Reexpression.uid_for_variant 1) x)

let test_reexpr_high_bit_weakness () =
  (* The paper's admitted weakness: the key leaves bit 31 unflipped, so
     an attack that flips only the high bit of the stored value in both
     variants decodes to the same (wrong) canonical value. *)
  let r0 = Reexpression.uid_for_variant 0 in
  let r1 = Reexpression.uid_for_variant 1 in
  let canonical = 33 in
  let stored0 = r0.Reexpression.encode canonical in
  let stored1 = r1.Reexpression.encode canonical in
  let flipped0 = Word.logxor stored0 Word.high_bit in
  let flipped1 = Word.logxor stored1 Word.high_bit in
  Alcotest.(check int) "decoded equal: escape" (r0.Reexpression.decode flipped0)
    (r1.Reexpression.decode flipped1)

let test_reexpr_table1_complete () =
  (* The paper's four rows plus the portfolio's four (per-variant
     keys, seeded masks, rotation+XOR, addition mod 2^31). *)
  Alcotest.(check int) "eight rows" 8 (List.length Reexpression.table1);
  let paper_uid = List.nth Reexpression.table1 3 in
  Alcotest.(check string) "uid row" "UID" paper_uid.Reexpression.target_type;
  List.iteri
    (fun i row ->
      if i >= 4 then
        Alcotest.(check string)
          (Printf.sprintf "portfolio row %d targets UID" i)
          "UID" row.Reexpression.target_type)
    Reexpression.table1

(* ------------------------------------------------------------------ *)
(* Variations                                                          *)
(* ------------------------------------------------------------------ *)

let test_variation_shapes () =
  Alcotest.(check int) "single" 1 (Variation.count Variation.single);
  Alcotest.(check int) "uid-diversity" 2 (Variation.count Variation.uid_diversity);
  let v = Variation.uid_diversity in
  Alcotest.(check bool) "passwd unshared" true
    (List.mem "/etc/passwd" v.Variation.unshared_paths);
  Alcotest.(check bool) "bases disjoint" true
    (v.Variation.variants.(0).Variation.base <> v.Variation.variants.(1).Variation.base);
  let t = Variation.instruction_tagging in
  Alcotest.(check bool) "tags disjoint" true
    (t.Variation.variants.(0).Variation.tag <> t.Variation.variants.(1).Variation.tag)

(* ------------------------------------------------------------------ *)
(* Portfolio-wide diversity properties                                 *)
(* ------------------------------------------------------------------ *)

let uid_specs_of v = Array.map (fun s -> s.Variation.uid) v.Variation.variants

let prop_portfolio_inverse =
  QCheck.Test.make ~name:"portfolio: inverse holds for every shipped config" ~count:500
    full_word_gen
    (fun x ->
      List.for_all
        (fun (_, v) ->
          Array.for_all (fun r -> Reexpression.inverse_holds r x) (uid_specs_of v))
        Variation.portfolio)

let prop_portfolio_all_pairs_disjoint =
  QCheck.Test.make ~name:"portfolio: all pairs pointwise disjoint" ~count:500
    full_word_gen
    (fun x ->
      List.for_all
        (fun (_, v) ->
          let rs = uid_specs_of v in
          let n = Array.length rs in
          let ok = ref true in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              if not (Reexpression.disjoint_at rs.(i) rs.(j) x) then ok := false
            done
          done;
          !ok)
        Variation.portfolio)

let prop_shared_key_regression =
  (* The pre-fix bug, kept as an executable negative: every variant
     >= 1 shared variant 1's key, so pair (1, 2) decodes EVERY word
     identically — a value injected into both is valid in both. The
     all-pairs property above is what rules this out of the shipped
     portfolio. *)
  QCheck.Test.make ~name:"pre-fix shared-key family: pair (1,2) never disjoint"
    ~count:500 full_word_gen
    (fun x ->
      let rs = uid_specs_of (Variation.shared_key 3) in
      not (Reexpression.disjoint_at rs.(1) rs.(2) x))

let prop_constructor_inverse =
  QCheck.Test.make ~name:"new constructors: inverse holds" ~count:500 full_word_gen
    (fun x ->
      List.for_all
        (fun r -> Reexpression.inverse_holds r x)
        [
          Reexpression.rotate ~k:7;
          Reexpression.rot_xor ~k:3 ~key:0x005A5A5A;
          Reexpression.add_mod31 ~offset:0x01000001;
          Reexpression.xor_key ~key:0x01234567;
        ])

let test_portfolio_witnesses () =
  (* The machine-checkable counterpart of the qcheck sampling above:
     selfcheck (inverse + declared form) for every variant, and the
     GF(2)/offset decision procedure proving every pair disjoint. *)
  List.iter
    (fun (name, v) ->
      let rs = uid_specs_of v in
      Array.iter
        (fun r ->
          match Reexpression.selfcheck r with
          | Ok () -> ()
          | Error x ->
            Alcotest.failf "%s: selfcheck of %s failed at 0x%08X" name
              r.Reexpression.name x)
        rs;
      match Reexpression.all_pairs_disjoint rs with
      | Ok () -> ()
      | Error (i, j, _) ->
        Alcotest.failf "%s: pair (%d, %d) not proven disjoint" name i j)
    Variation.portfolio

let test_shared_key_witness_refuted () =
  (* Regression for the N>2 disjointness bug: the solver must refute
     the shared-key family at pair (1, 2) with a concrete collision. *)
  let rs = uid_specs_of (Variation.shared_key 3) in
  match Reexpression.all_pairs_disjoint rs with
  | Ok () -> Alcotest.fail "shared-key family wrongly certified disjoint"
  | Error (i, j, witness) -> (
    Alcotest.(check (pair int int)) "offending pair" (1, 2) (i, j);
    match witness with
    | Some x ->
      Alcotest.(check bool) "collision verified by evaluation" false
        (Reexpression.disjoint_at rs.(1) rs.(2) x)
    | None -> Alcotest.fail "expected a concrete collision witness")

let test_rotation_only_refuted () =
  (* Bare rotations all fix 0: the single-axis family must not pass. *)
  match Reexpression.all_pairs_disjoint (Reexpression.rotation_only_family 3) with
  | Ok () -> Alcotest.fail "bare rotations wrongly certified disjoint"
  | Error _ -> ()

let test_disjointness_verdicts () =
  let open Reexpression in
  (match disjointness (uid_for_variant 1) (uid_for_variant 2) with
  | Proven -> ()
  | _ -> Alcotest.fail "distinct XOR keys must be proven disjoint");
  (match disjointness (rotate ~k:1) (rotate ~k:2) with
  | Refuted x ->
    Alcotest.(check bool) "refutation verified" false
      (disjoint_at (rotate ~k:1) (rotate ~k:2) x)
  | _ -> Alcotest.fail "bare rotations must be refuted");
  (match disjointness (add_mod31 ~offset:5) (add_mod31 ~offset:5) with
  | Refuted _ -> ()
  | _ -> Alcotest.fail "equal offsets must be refuted");
  match disjointness (add_mod31 ~offset:1) (add_mod31 ~offset:2) with
  | Proven -> ()
  | _ -> Alcotest.fail "distinct offsets must be proven disjoint"

let test_composed_shapes () =
  let v = Variation.full_diversity_n 3 in
  Alcotest.(check int) "three variants" 3 (Variation.count v);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) (Printf.sprintf "variant %d index" i) i s.Variation.index;
      Alcotest.(check int) (Printf.sprintf "variant %d tag" i) (i + 1) s.Variation.tag)
    v.Variation.variants;
  let bases = Array.map (fun s -> s.Variation.base) v.Variation.variants in
  Alcotest.(check bool) "bases pairwise distinct" true
    (bases.(0) <> bases.(1) && bases.(1) <> bases.(2) && bases.(0) <> bases.(2));
  Alcotest.(check bool) "passwd unshared" true
    (List.mem "/etc/passwd" v.Variation.unshared_paths);
  let plain = Variation.composed ~n:2 [] in
  Alcotest.(check string) "plain name" "composed-plain-2" plain.Variation.name;
  Alcotest.(check bool) "no unshared files without a uid axis" true
    (plain.Variation.unshared_paths = [])

let test_uid_diversity_n_validation () =
  Alcotest.check_raises "overlap"
    (Invalid_argument "Variation.uid_diversity_n: variant 0 and 1 segments overlap")
    (fun () -> ignore (Variation.uid_diversity_n ~segment_size:0x8000_0001 2));
  Alcotest.check_raises "overflow"
    (Invalid_argument
       "Variation.uid_diversity_n: variant 2 segment overflows the 32-bit address space")
    (fun () -> ignore (Variation.uid_diversity_n ~segment_size:0x4000_0000 3));
  Alcotest.check_raises "positive size"
    (Invalid_argument "Variation.uid_diversity_n: segment size must be positive")
    (fun () -> ignore (Variation.uid_diversity_n ~segment_size:0 3))

let test_alarm_divergent_indices () =
  Alcotest.(check (list int)) "majority of three" [ 2 ]
    (Alarm.divergent_indices [| 5; 5; 7 |]);
  Alcotest.(check (list int)) "minority first" [ 0 ]
    (Alarm.divergent_indices [| 9; 4; 4 |]);
  Alcotest.(check (list int)) "all distinct ties toward variant 0" [ 1; 2 ]
    (Alarm.divergent_indices [| 1; 2; 3 |]);
  Alcotest.(check (list int)) "four variants, split pair" [ 2; 3 ]
    (Alarm.divergent_indices [| 8; 8; 1; 2 |]);
  Alcotest.(check (list int)) "agreement" [] (Alarm.divergent_indices [| 6; 6; 6 |])

(* ------------------------------------------------------------------ *)
(* Monitor plumbing helpers                                            *)
(* ------------------------------------------------------------------ *)

let compile source = Nv_minic.Codegen.compile_source (Nv_minic.Runtime.with_runtime source)

let compile_bare source = Nv_minic.Codegen.compile_source source

let system ?vfs ~variation source =
  Nsystem.of_one_image ?vfs ~variation (compile source)

let expect_exit expected outcome =
  match outcome with
  | Monitor.Exited status -> Alcotest.(check int) "exit status" expected status
  | Monitor.Alarm reason -> Alcotest.failf "unexpected alarm: %a" Alarm.pp reason
  | Monitor.Blocked_on_accept -> Alcotest.fail "unexpected accept block"
  | Monitor.Out_of_fuel -> Alcotest.fail "out of fuel"

let expect_alarm pred outcome =
  match outcome with
  | Monitor.Alarm reason ->
    if not (pred reason) then Alcotest.failf "wrong alarm: %a" Alarm.pp reason
  | Monitor.Exited status -> Alcotest.failf "exited %d instead of alarming" status
  | Monitor.Blocked_on_accept -> Alcotest.fail "blocked instead of alarming"
  | Monitor.Out_of_fuel -> Alcotest.fail "out of fuel"

(* ------------------------------------------------------------------ *)
(* Normal equivalence (Section 2.2)                                    *)
(* ------------------------------------------------------------------ *)

let uid_dance_source =
  {|int main(void) {
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 1; }
      uid_t e = geteuid();
      if (cc_eq(me, e) == 0) { return 2; }
      return 0;
    }|}

let test_normal_equivalence_replicated () =
  expect_exit 0 (Nsystem.run (system ~variation:Variation.replicated uid_dance_source))

let test_normal_equivalence_address_partition () =
  expect_exit 0 (Nsystem.run (system ~variation:Variation.address_partition uid_dance_source))

let test_normal_equivalence_tagging () =
  expect_exit 0 (Nsystem.run (system ~variation:Variation.instruction_tagging uid_dance_source))

let test_normal_equivalence_uid_diversity () =
  (* Constant-free UID flows work without source transformation: the
     reexpression happens entirely at the kernel boundary. *)
  expect_exit 0 (Nsystem.run (system ~variation:Variation.uid_diversity uid_dance_source))

let test_uid_values_differ_inside_variants () =
  (* getuid really does give each variant a different concrete value. *)
  let source = {|uid_t stash;
                 int main(void) { stash = getuid(); return 0; }|} in
  let sys = system ~variation:Variation.uid_diversity source in
  expect_exit 0 (Nsystem.run sys);
  let value i =
    let loaded = Monitor.loaded (Nsystem.monitor sys) i in
    Memory.load_word loaded.Image.memory (Image.abs_symbol loaded "stash")
  in
  Alcotest.(check int) "variant 0 canonical root" 0 (value 0);
  Alcotest.(check int) "variant 1 reexpressed root" 0x7FFFFFFF (value 1)

let test_unshared_passwd_normal_equivalence () =
  (* getpwnam through the unshared /etc/passwd: each variant parses its
     own diversified copy and arrives at the same canonical UID at the
     kernel boundary. *)
  let source =
    {|int main(void) {
        uid_t www = getpwnam_uid("www");
        if (seteuid(www) != 0) { return 1; }
        int fd = sys_open("/secret/shadow", 0);
        if (fd >= 0) { return 2; }
        return 0;
      }|}
  in
  expect_exit 0 (Nsystem.run (system ~variation:Variation.uid_diversity source))

let test_shared_io_replicated_once () =
  let source =
    {|int main(void) {
        int fd = sys_open("/etc/group", 0);
        if (fd < 0) { return 1; }
        char buf[256];
        int n = sys_read(fd, buf, 255);
        sys_close(fd);
        if (n <= 0) { return 2; }
        return 0;
      }|}
  in
  let sys = system ~variation:Variation.address_partition source in
  expect_exit 0 (Nsystem.run sys);
  (* /etc/group is shared under plain address partitioning: exactly one
     kernel open+read+close. *)
  Alcotest.(check bool) "io performed once" true (Kernel.syscalls_executed (Nsystem.kernel sys) > 0)

let test_server_roundtrip_through_monitor () =
  let source =
    {|int main(void) {
        int fd = sys_accept(3);
        char buf[64];
        int n = sys_read(fd, buf, 63);
        buf[n] = '\0';
        write_str(fd, "echo:");
        write_str(fd, buf);
        sys_close(fd);
        return 0;
      }|}
  in
  let sys = system ~variation:Variation.uid_diversity source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  let conn = Nsystem.connect sys in
  Socket.client_send conn "ping";
  expect_exit 0 (Nsystem.run sys);
  Alcotest.(check string) "response produced once" "echo:ping" (Socket.client_recv conn)

(* ------------------------------------------------------------------ *)
(* Detection (Section 2.3)                                             *)
(* ------------------------------------------------------------------ *)

(* Simulate the effect of a data corruption attack: the same concrete
   bytes land in both variants' memory (the attacker sends one input,
   which the framework replicates). We poke the value directly to keep
   these tests focused on the monitor; end-to-end exploit delivery is
   covered by the nv_attacks tests. *)
let poke_uid_global sys ~name ~value =
  let monitor = Nsystem.monitor sys in
  for i = 0 to Monitor.variant_count monitor - 1 do
    let loaded = Monitor.loaded monitor i in
    Memory.store_word loaded.Image.memory (Image.abs_symbol loaded name) value
  done

let stash_then_seteuid =
  {|uid_t stash;
    int main(void) {
      stash = getuid();
      int fd = sys_accept(3);
      sys_close(fd);
      if (seteuid(stash) != 0) { return 1; }
      return 0;
    }|}

let run_with_midpoint_poke ~variation ~poke source =
  let sys = system ~variation source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  poke sys;
  ignore (Nsystem.connect sys);
  Nsystem.run sys

let test_detect_uid_corruption_via_seteuid () =
  let outcome =
    run_with_midpoint_poke ~variation:Variation.uid_diversity
      ~poke:(fun sys -> poke_uid_global sys ~name:"stash" ~value:0)
      stash_then_seteuid
  in
  expect_alarm
    (function Alarm.Arg_mismatch { syscall; _ } -> syscall = Nv_os.Syscall.sys_seteuid | _ -> false)
    outcome

let test_no_detection_without_data_diversity () =
  (* The same corruption under plain address partitioning sails through:
     both variants decode the same 0 and the attacker becomes root. *)
  let outcome =
    run_with_midpoint_poke ~variation:Variation.address_partition
      ~poke:(fun sys -> poke_uid_global sys ~name:"stash" ~value:0)
      stash_then_seteuid
  in
  expect_exit 0 outcome

let test_detect_uid_value_exposure () =
  (* uid_value (Table 2) detects corruption even before any real
     UID-bearing kernel call runs. *)
  let source =
    {|uid_t stash;
      int main(void) {
        stash = getuid();
        int fd = sys_accept(3);
        sys_close(fd);
        uid_t checked = uid_value(stash);
        if (cc_eq(checked, stash) == 0) { return 1; }
        return 0;
      }|}
  in
  let outcome =
    run_with_midpoint_poke ~variation:Variation.uid_diversity
      ~poke:(fun sys -> poke_uid_global sys ~name:"stash" ~value:0)
      source
  in
  expect_alarm
    (function
      | Alarm.Arg_mismatch { syscall; _ } -> syscall = Nv_os.Syscall.sys_uid_value
      | _ -> false)
    outcome

let test_uid_value_returns_passed_value () =
  let source =
    {|int main(void) {
        uid_t me = getuid();
        uid_t same = uid_value(me);
        if (cc_eq(me, same) == 0) { return 1; }
        return 0;
      }|}
  in
  expect_exit 0 (Nsystem.run (system ~variation:Variation.uid_diversity source))

let test_detect_partial_overwrite_low_byte () =
  (* Byte-level partial overwrite (Section 2.3): flipping the low byte
     of both variants' stored UID decodes to different values. *)
  let poke sys =
    let monitor = Nsystem.monitor sys in
    for i = 0 to Monitor.variant_count monitor - 1 do
      let loaded = Monitor.loaded monitor i in
      let addr = Image.abs_symbol loaded "stash" in
      Memory.store_byte loaded.Image.memory addr 0x00
    done
  in
  let outcome =
    run_with_midpoint_poke ~variation:Variation.uid_diversity ~poke stash_then_seteuid
  in
  expect_alarm (function Alarm.Arg_mismatch _ -> true | _ -> false) outcome

let test_high_bit_overwrite_escapes () =
  (* The documented weakness end-to-end: setting the high bit of the
     stored word in both variants decodes identically, so no alarm. The
     kernel then rejects the out-of-range UID, but the attack is not
     *detected* - exactly the paper's caveat. *)
  let poke sys =
    let monitor = Nsystem.monitor sys in
    for i = 0 to Monitor.variant_count monitor - 1 do
      let loaded = Monitor.loaded monitor i in
      let addr = Image.abs_symbol loaded "stash" in
      let current = Memory.load_word loaded.Image.memory addr in
      Memory.store_word loaded.Image.memory addr (Word.logxor current Word.high_bit)
    done
  in
  let outcome =
    run_with_midpoint_poke ~variation:Variation.uid_diversity ~poke stash_then_seteuid
  in
  (* No Arg_mismatch alarm: the seteuid succeeds or fails identically in
     both variants (euid 0x80000000 is simply a non-root uid here). *)
  expect_exit 0 outcome

let test_detect_cond_divergence () =
  let source =
    {|int flag;
      int main(void) {
        int fd = sys_accept(3);
        sys_close(fd);
        if (cond_chk(flag == 0)) { return 0; }
        return 1;
      }|}
  in
  (* Simulate divergence: the variants end up with different data. *)
  let poke sys =
    let loaded = Monitor.loaded (Nsystem.monitor sys) 1 in
    Memory.store_word loaded.Image.memory (Image.abs_symbol loaded "flag") 1
  in
  let outcome =
    run_with_midpoint_poke ~variation:Variation.uid_diversity ~poke source
  in
  expect_alarm (function Alarm.Cond_mismatch _ -> true | _ -> false) outcome

let test_detect_syscall_divergence () =
  (* Without cond_chk, a UID-dependent branch reaches different
     syscalls; the monitor flags the syscall-number mismatch. *)
  let source =
    {|int main(void) {
        int raw = (int)getuid();
        int fd = sys_accept(3);
        sys_close(fd);
        if (raw < 1000) {
          sys_close(0);
        } else {
          sys_open("/etc/passwd", 0);
        }
        return 0;
      }|}
  in
  let sys = system ~variation:Variation.uid_diversity source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  ignore (Nsystem.connect sys);
  expect_alarm (function Alarm.Syscall_mismatch _ -> true | _ -> false) (Nsystem.run sys)

let test_detect_output_divergence_uid_in_log () =
  (* The paper's Apache log-file complication: writing the raw UID value
     to a shared log diverges, because each variant holds a different
     concrete representation. *)
  let source =
    {|int main(void) {
        write_int(1, (int)getuid());
        return 0;
      }|}
  in
  (* Detection may fire on the length argument (the decimal renderings
     have different lengths) or on the bytes themselves. *)
  expect_alarm
    (function
      | Alarm.Output_mismatch { fd = 1; _ } -> true
      | Alarm.Arg_mismatch { syscall; _ } -> syscall = Nv_os.Syscall.sys_write
      | _ -> false)
    (Nsystem.run (system ~variation:Variation.uid_diversity source))

let test_detect_absolute_address_attack () =
  (* Figure 1: an injected absolute address is valid in at most one
     variant; the other segfaults. *)
  let source =
    Printf.sprintf "int main(void) { int *p = (int*)0x%X; return *p; }" Variation.low_base
  in
  expect_alarm
    (function
      | Alarm.Variant_fault { variant = 1; fault = Cpu.Segfault _ } -> true | _ -> false)
    (Nsystem.run (system ~variation:Variation.address_partition source))

let test_single_variant_not_protected_by_address_partition () =
  (* The same absolute dereference under the single-variant baseline
     succeeds (reads some code bytes). *)
  let source =
    Printf.sprintf "int main(void) { int *p = (int*)0x%X; if (*p != 0) { return 0; } return 0; }"
      Variation.low_base
  in
  expect_exit 0 (Nsystem.run (system ~variation:Variation.single source))

let test_detect_tag_corruption () =
  (* Code injection under instruction tagging: overwriting an
     instruction's tag byte (as injected code would) faults the variant
     whose expected tag no longer matches. *)
  let source = "int main(void) { int fd = sys_accept(3); sys_close(fd); return 0; }" in
  let sys = system ~variation:Variation.instruction_tagging source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  (* Corrupt the same code offset in both variants with tag value 1:
     valid for variant 0 (tag 1), invalid for variant 1 (tag 2). *)
  let monitor = Nsystem.monitor sys in
  for i = 0 to 1 do
    let loaded = Monitor.loaded monitor i in
    let layout = loaded.Image.layout in
    let pc = Cpu.pc loaded.Image.cpu in
    let offset = pc - layout.Image.base in
    ignore offset;
    Memory.store_byte loaded.Image.memory pc 1
  done;
  ignore (Nsystem.connect sys);
  expect_alarm
    (function
      | Alarm.Variant_fault { variant = 1; fault = Cpu.Bad_tag _ } -> true | _ -> false)
    (Nsystem.run sys)

let test_exit_mismatch_detected () =
  let source =
    {|int main(void) {
        int fd = sys_accept(3);
        sys_close(fd);
        return (int)getuid();
      }|}
  in
  (* Variant 0 exits 0, variant 1 exits 0x7FFFFFFF: caught at exit. *)
  let sys = system ~variation:Variation.uid_diversity source in
  (match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block");
  ignore (Nsystem.connect sys);
  expect_alarm (function Alarm.Exit_mismatch _ -> true | _ -> false) (Nsystem.run sys)

(* ------------------------------------------------------------------ *)
(* Asynchronous events (Section 3.1's scheduling-divergence hazard)    *)
(* ------------------------------------------------------------------ *)

let signal_program =
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t me = getuid();
      if (seteuid(me) != 0) { return 9; }
      // compute stretch so a fixed-count delivery lands mid-run
      int spin = 0;
      while (spin < 300) { spin++; }
      return sigcount;
    }|}

let start_blocked sys =
  match Nsystem.run sys with
  | Monitor.Blocked_on_accept -> ()
  | _ -> Alcotest.fail "expected accept block"

let test_signal_at_rendezvous_delivered () =
  let sys = system ~variation:Variation.uid_diversity signal_program in
  start_blocked sys;
  (match
     Monitor.post_signal (Nsystem.monitor sys) ~handler:"on_signal"
       ~mode:Monitor.At_rendezvous
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "pending" true (Monitor.signal_pending (Nsystem.monitor sys));
  ignore (Nsystem.connect sys);
  (* Both variants run the handler exactly once, in lockstep; the
     program exits with the handler's counter. *)
  expect_exit 1 (Nsystem.run sys);
  Alcotest.(check bool) "consumed" false (Monitor.signal_pending (Nsystem.monitor sys))

let test_signal_immediate_aligned_variants () =
  (* Without data-divergent parsing, the variants' instruction streams
     are aligned and a fixed-count delivery lands at the same logical
     point: no false alarm. *)
  let sys = system ~variation:Variation.uid_diversity signal_program in
  start_blocked sys;
  (match
     Monitor.post_signal (Nsystem.monitor sys) ~handler:"on_signal"
       ~mode:(Monitor.Immediate { after_instructions = 200 })
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Nsystem.connect sys);
  expect_exit 1 (Nsystem.run sys)

let divergent_signal_program =
  (* getpwnam parses per-variant unshared files of different lengths,
     so the variants' instruction counts drift; a snapshot of the
     handler's counter taken "at the same instruction count" is then
     taken at different logical points. *)
  {|int sigcount = 0;
    int on_signal(void) {
      sigcount = sigcount + 1;
      return 0;
    }
    int main(void) {
      int fd = sys_accept(3);
      sys_close(fd);
      uid_t www = getpwnam_uid("www");
      int snapshot = sigcount;
      if (cond_chk(snapshot == 0)) {
        if (seteuid(www) != 0) { return 9; }
        return 0;
      }
      return 1;
    }|}

let run_divergent mode =
  let sys = system ~variation:Variation.uid_diversity divergent_signal_program in
  start_blocked sys;
  (match Monitor.post_signal (Nsystem.monitor sys) ~handler:"on_signal" ~mode with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Nsystem.connect sys);
  Nsystem.run sys

let test_signal_immediate_false_detection_exists () =
  (* The Section 3.1 hazard: for some delivery points, naive
     fixed-count delivery breaks normal equivalence and triggers a
     false detection. *)
  let rec scan after =
    if after > 6000 then Alcotest.fail "no delivery point caused a false detection"
    else begin
      match run_divergent (Monitor.Immediate { after_instructions = after }) with
      | Monitor.Alarm _ -> ()
      | _ -> scan (after + 100)
    end
  in
  scan 100

let test_signal_at_rendezvous_never_false_alarms () =
  (* The synchronized discipline is immune regardless of when the
     signal is posted: delivery always happens at equivalent states. *)
  match run_divergent Monitor.At_rendezvous with
  | Monitor.Exited _ -> ()
  | Monitor.Alarm reason -> Alcotest.failf "false alarm: %a" Alarm.pp reason
  | _ -> Alcotest.fail "unexpected outcome"

let test_signal_handler_syscall_rejected () =
  let source =
    {|int bad_handler(void) {
        sys_close(0);
        return 0;
      }
      int main(void) {
        int fd = sys_accept(3);
        sys_close(fd);
        return 0;
      }|}
  in
  let sys = system ~variation:Variation.uid_diversity source in
  start_blocked sys;
  (match
     Monitor.post_signal (Nsystem.monitor sys) ~handler:"bad_handler"
       ~mode:Monitor.At_rendezvous
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore (Nsystem.connect sys);
  match Nsystem.run sys with
  | Monitor.Alarm (Alarm.Signal_delivery_failed { detail; _ }) ->
    Alcotest.(check string) "reason" "handler made a system call" detail
  | _ -> Alcotest.fail "expected delivery failure"

let test_signal_post_validation () =
  let sys = system ~variation:Variation.uid_diversity signal_program in
  start_blocked sys;
  let monitor = Nsystem.monitor sys in
  (match Monitor.post_signal monitor ~handler:"nonexistent" ~mode:Monitor.At_rendezvous with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown handler accepted");
  (match Monitor.post_signal monitor ~handler:"on_signal" ~mode:Monitor.At_rendezvous with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Monitor.post_signal monitor ~handler:"on_signal" ~mode:Monitor.At_rendezvous with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double post accepted"

(* ------------------------------------------------------------------ *)
(* Tracing, counters, plumbing                                         *)
(* ------------------------------------------------------------------ *)

let test_tracer_sees_rendezvous () =
  (* The flight recorder's coordinator ring carries one
     "[<syscall>] <summary>" note per checked call, relaxed or not. *)
  let sys = system ~variation:Variation.uid_diversity uid_dance_source in
  let session = Monitor.trace_session (Nsystem.monitor sys) in
  Nv_util.Trace.set_enabled session true;
  expect_exit 0 (Nsystem.run sys);
  let notes =
    List.concat_map
      (fun ring ->
        if Nv_util.Trace.ring_name ring <> "coordinator" then []
        else
          List.filter_map
            (fun e ->
              match e.Nv_util.Trace.kind with Nv_util.Trace.Note s -> Some s | _ -> None)
            (Nv_util.Trace.events ring))
      (Nv_util.Trace.rings session)
  in
  let names = List.map (fun s -> String.sub s 1 (String.index s ']' - 1)) notes in
  Alcotest.(check bool) "getuid traced" true (List.mem "getuid" names);
  Alcotest.(check bool) "seteuid traced" true (List.mem "seteuid" names);
  Alcotest.(check bool) "cc_eq traced" true (List.mem "cc_eq" names);
  Alcotest.(check bool) "exact seteuid note" true
    (List.mem
       "[seteuid] seteuid: R_i^-1 applied, canonical 0x00000000 agreed, performed once"
       notes);
  Alcotest.(check bool) "rendezvous counted" true
    (Monitor.rendezvous_count (Nsystem.monitor sys) >= List.length names)

let test_instruction_accounting () =
  let sys = system ~variation:Variation.uid_diversity uid_dance_source in
  expect_exit 0 (Nsystem.run sys);
  let monitor = Nsystem.monitor sys in
  let total = Monitor.instructions_retired monitor in
  let v0 = Cpu.instructions_retired (Monitor.loaded monitor 0).Image.cpu in
  let v1 = Cpu.instructions_retired (Monitor.loaded monitor 1).Image.cpu in
  Alcotest.(check int) "sum" total (v0 + v1);
  Alcotest.(check bool) "both ran" true (v0 > 0 && v1 > 0)

let test_monitor_create_validations () =
  let image = compile_bare "int main(void) { return 0; }" in
  let vfs = Nsystem.standard_vfs ~variation:Variation.uid_diversity () in
  let kernel = Kernel.create ~variants:1 vfs in
  Alcotest.(check bool) "image count mismatch" true
    (try
       ignore (Monitor.create ~kernel ~variation:Variation.uid_diversity [| image |]);
       false
     with Invalid_argument _ -> true)

let test_standard_vfs_contents () =
  let vfs = Nsystem.standard_vfs ~variation:Variation.uid_diversity () in
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Vfs.exists vfs path))
    [ "/etc/passwd"; "/etc/passwd-0"; "/etc/passwd-1"; "/etc/group"; "/etc/group-0";
      "/etc/group-1"; "/secret/shadow"; "/var/log/httpd.log" ];
  (* Variant 1's copy carries reexpressed UIDs. *)
  match Vfs.contents vfs ~path:"/etc/passwd-1" with
  | Ok text -> (
    match Nv_os.Passwd.parse text with
    | Ok entries ->
      let root = Option.get (Nv_os.Passwd.lookup entries "root") in
      Alcotest.(check int) "reexpressed root" 0x7FFFFFFF root.Nv_os.Passwd.uid
    | Error e -> Alcotest.fail e)
  | Error _ -> Alcotest.fail "passwd-1 missing"

let test_monitor_stats () =
  let sys = system ~variation:Variation.uid_diversity uid_dance_source in
  expect_exit 0 (Nsystem.run sys);
  let stats = Monitor.stats (Nsystem.monitor sys) in
  Alcotest.(check int) "rendezvous matches counter" stats.Monitor.st_rendezvous
    (Monitor.rendezvous_count (Nsystem.monitor sys));
  Alcotest.(check int) "two variants" 2 (Array.length stats.Monitor.st_instructions);
  Alcotest.(check bool) "getuid in histogram" true
    (List.mem_assoc "getuid" stats.Monitor.st_calls);
  Alcotest.(check bool) "seteuid in histogram" true
    (List.mem_assoc "seteuid" stats.Monitor.st_calls);
  let total_calls = List.fold_left (fun acc (_, n) -> acc + n) 0 stats.Monitor.st_calls in
  Alcotest.(check int) "histogram sums to rendezvous" stats.Monitor.st_rendezvous total_calls;
  Alcotest.(check int) "no signals" 0 stats.Monitor.st_signals_delivered

let test_syscall_numbers_fit_fast_path () =
  (* Every defined syscall must fit the monitor's per-number
     metric-handle cache; a number >= syscall_slots would silently
     fall back to the slow by-name lookup on every rendezvous. *)
  List.iter
    (fun (number, { Nv_os.Syscall.name; _ }) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s (#%d) within [0, %d)" name number Monitor.syscall_slots)
        true
        (number >= 0 && number < Monitor.syscall_slots))
    Nv_os.Syscall.all

let test_out_of_fuel () =
  let sys = system ~variation:Variation.replicated "int main(void) { while (1) {} return 0; }" in
  match Nsystem.run ~fuel:10_000 sys with
  | Monitor.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let () =
  Alcotest.run "nv_core"
    [
      ( "reexpression",
        [
          Alcotest.test_case "identity" `Quick test_reexpr_identity;
          Alcotest.test_case "paper values" `Quick test_reexpr_paper_values;
          Alcotest.test_case "high-bit weakness" `Quick test_reexpr_high_bit_weakness;
          Alcotest.test_case "table1 rows" `Quick test_reexpr_table1_complete;
          Alcotest.test_case "disjointness verdicts" `Quick test_disjointness_verdicts;
          Alcotest.test_case "rotation-only refuted" `Quick test_rotation_only_refuted;
        ]
        @ qsuite [ prop_reexpr_inverse; prop_reexpr_disjoint; prop_constructor_inverse ] );
      ( "portfolio",
        [
          Alcotest.test_case "witnesses" `Quick test_portfolio_witnesses;
          Alcotest.test_case "shared-key refuted (N>2 regression)" `Quick
            test_shared_key_witness_refuted;
        ]
        @ qsuite
            [
              prop_portfolio_inverse;
              prop_portfolio_all_pairs_disjoint;
              prop_shared_key_regression;
            ] );
      ( "variation",
        [
          Alcotest.test_case "shapes" `Quick test_variation_shapes;
          Alcotest.test_case "composed shapes" `Quick test_composed_shapes;
          Alcotest.test_case "base validation" `Quick test_uid_diversity_n_validation;
        ] );
      ( "alarm",
        [
          Alcotest.test_case "divergent indices majority" `Quick
            test_alarm_divergent_indices;
        ] );
      ( "normal-equivalence",
        [
          Alcotest.test_case "replicated" `Quick test_normal_equivalence_replicated;
          Alcotest.test_case "address partition" `Quick
            test_normal_equivalence_address_partition;
          Alcotest.test_case "instruction tagging" `Quick test_normal_equivalence_tagging;
          Alcotest.test_case "uid diversity" `Quick test_normal_equivalence_uid_diversity;
          Alcotest.test_case "uid values differ inside variants" `Quick
            test_uid_values_differ_inside_variants;
          Alcotest.test_case "unshared passwd" `Quick test_unshared_passwd_normal_equivalence;
          Alcotest.test_case "shared io once" `Quick test_shared_io_replicated_once;
          Alcotest.test_case "server roundtrip" `Quick test_server_roundtrip_through_monitor;
        ] );
      ( "detection",
        [
          Alcotest.test_case "uid corruption via seteuid" `Quick
            test_detect_uid_corruption_via_seteuid;
          Alcotest.test_case "no detection without data diversity" `Quick
            test_no_detection_without_data_diversity;
          Alcotest.test_case "uid_value exposure" `Quick test_detect_uid_value_exposure;
          Alcotest.test_case "uid_value returns value" `Quick test_uid_value_returns_passed_value;
          Alcotest.test_case "partial overwrite low byte" `Quick
            test_detect_partial_overwrite_low_byte;
          Alcotest.test_case "high-bit overwrite escapes" `Quick test_high_bit_overwrite_escapes;
          Alcotest.test_case "cond divergence" `Quick test_detect_cond_divergence;
          Alcotest.test_case "syscall divergence" `Quick test_detect_syscall_divergence;
          Alcotest.test_case "uid in log output" `Quick test_detect_output_divergence_uid_in_log;
          Alcotest.test_case "absolute address attack" `Quick test_detect_absolute_address_attack;
          Alcotest.test_case "single variant unprotected" `Quick
            test_single_variant_not_protected_by_address_partition;
          Alcotest.test_case "tag corruption" `Quick test_detect_tag_corruption;
          Alcotest.test_case "exit mismatch" `Quick test_exit_mismatch_detected;
        ] );
      ( "signals",
        [
          Alcotest.test_case "at-rendezvous delivered" `Quick
            test_signal_at_rendezvous_delivered;
          Alcotest.test_case "immediate, aligned variants" `Quick
            test_signal_immediate_aligned_variants;
          Alcotest.test_case "immediate false detection exists" `Quick
            test_signal_immediate_false_detection_exists;
          Alcotest.test_case "at-rendezvous never false alarms" `Quick
            test_signal_at_rendezvous_never_false_alarms;
          Alcotest.test_case "handler syscall rejected" `Quick
            test_signal_handler_syscall_rejected;
          Alcotest.test_case "post validation" `Quick test_signal_post_validation;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "tracer" `Quick test_tracer_sees_rendezvous;
          Alcotest.test_case "instruction accounting" `Quick test_instruction_accounting;
          Alcotest.test_case "create validations" `Quick test_monitor_create_validations;
          Alcotest.test_case "standard vfs" `Quick test_standard_vfs_contents;
          Alcotest.test_case "monitor stats" `Quick test_monitor_stats;
          Alcotest.test_case "syscall numbers fit fast path" `Quick
            test_syscall_numbers_fit_fast_path;
          Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
        ] );
    ]
