(* Section 3.4: unshared files. Trusted external data (/etc/passwd)
   must reach each variant in that variant's data representation; the
   kernel resolves an open of a registered unshared path to a
   per-variant diversified copy, and each variant performs its own I/O
   on its own file.

     dune exec examples/unshared_files.exe *)

module Variation = Nv_core.Variation
module Monitor = Nv_core.Monitor
module Nsystem = Nv_core.Nsystem
module Vfs = Nv_os.Vfs
module Trace = Nv_util.Trace

let program =
  {|uid_t found;
    int main(void) {
      found = getpwnam_uid("www");
      if (seteuid(found) != 0) { return 1; }
      return 0;
    }|}

let () =
  let variation = Variation.uid_diversity in
  let vfs = Nsystem.standard_vfs ~variation () in
  print_endline "== the diversified passwd copies ==";
  List.iter
    (fun path ->
      match Vfs.contents vfs ~path with
      | Ok text ->
        Format.printf "--- %s ---@.%s" path
          (String.concat "\n"
             (List.filteri (fun i _ -> i < 3) (String.split_on_char '\n' text))
          ^ "\n...\n")
      | Error _ -> Format.printf "%s missing@." path)
    [ "/etc/passwd-0"; "/etc/passwd-1" ];
  print_endline "== run getpwnam(\"www\") through the monitor ==";
  let images, _ =
    match
      Nv_transform.Uid_transform.transform_source ~variation
        (Nv_minic.Runtime.with_runtime program)
    with
    | Ok result -> result
    | Error e -> failwith e
  in
  let sys = Nsystem.create ~vfs ~variation images in
  (* The flight recorder's coordinator ring keeps one
     "[<syscall>] <summary>" note per checked call. *)
  let session = Monitor.trace_session (Nsystem.monitor sys) in
  Trace.set_enabled session true;
  let outcome = Nsystem.run sys in
  List.iter
    (fun ring ->
      if Trace.ring_name ring = "coordinator" then
        List.iter
          (fun e ->
            match e.Trace.kind with
            | Trace.Note text -> (
              match String.sub text 1 (String.index text ']' - 1) with
              | "open" | "read" | "seteuid" -> Format.printf "  %s@." text
              | _ -> ())
            | _ -> ())
          (Trace.events ring))
    (Trace.rings session);
  (match outcome with
  | Monitor.Exited 0 -> print_endline "exited 0"
  | other ->
    Format.printf "unexpected: %s@."
      (match other with
      | Monitor.Alarm r -> Nv_core.Alarm.to_string r
      | Monitor.Exited n -> Printf.sprintf "exit %d" n
      | _ -> "?"));
  print_endline "== the concrete values each variant parsed ==";
  for i = 0 to 1 do
    let loaded = Monitor.loaded (Nsystem.monitor sys) i in
    let value =
      Nv_vm.Memory.load_word loaded.Nv_vm.Image.memory
        (Nv_vm.Image.abs_symbol loaded "found")
    in
    Format.printf "variant %d parsed uid 0x%08X (canonical %d)@." i value
      ((Variation.uid_diversity.Variation.variants.(i)).Variation.uid
         .Nv_core.Reexpression.decode value)
  done;
  print_endline
    "\nBoth variants called seteuid with equivalent canonical values even\n\
     though their concrete file contents, parse lengths and register values\n\
     all differed - reexpression happened in the data, not on the read path."
