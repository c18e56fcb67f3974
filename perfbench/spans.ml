type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int;
  req : int;
}

type t = { mutable spans : span array; mutable len : int; t0 : float }

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let dummy = { name = ""; start = 0.; stop = 0.; parent = -1; req = -1 }

let create () = { spans = Array.make 4096 dummy; len = 0; t0 = now () }

let enter t ~parent ~req name =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let id = t.len in
  t.spans.(id) <- { name; start = now (); stop = nan; parent; req };
  t.len <- id + 1;
  id

let leave t id = t.spans.(id).stop <- now ()

let with_span t ~parent ~req name f =
  let id = enter t ~parent ~req name in
  Fun.protect ~finally:(fun () -> leave t id) f

let count t = t.len

let duration s = if Float.is_nan s.stop then 0. else s.stop -. s.start

let totals t name =
  let n = ref 0 and sum = ref 0. in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.name = name && not (Float.is_nan s.stop) then begin
      incr n;
      sum := !sum +. duration s
    end
  done;
  (!n, !sum)

(* Children are strictly nested inside their parent (the harness is one
   sequential client), so a span's self time is its duration minus the
   sum of its children's durations. *)
let self_times t =
  let child = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. duration s
  done;
  let order = ref [] in
  let table = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    let n, self =
      match Hashtbl.find_opt table s.name with
      | Some v -> v
      | None ->
        order := s.name :: !order;
        (0, 0.)
    in
    Hashtbl.replace table s.name (n + 1, self +. duration s -. child.(i))
  done;
  List.rev_map
    (fun name ->
      let n, self = Hashtbl.find table name in
      (name, n, self))
    !order

let write_chrome t ~meta path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"otherData\":{";
      List.iteri
        (fun i (k, v) -> Printf.fprintf oc "%s%S:%S" (if i = 0 then "" else ",") k v)
        meta;
      output_string oc "},\"traceEvents\":[";
      for i = 0 to t.len - 1 do
        let s = t.spans.(i) in
        Printf.fprintf oc
          "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
          (if i = 0 then "" else ",")
          s.name
          ((s.start -. t.t0) *. 1e6)
          (duration s *. 1e6) i s.parent s.req
      done;
      output_string oc "\n]}\n")
