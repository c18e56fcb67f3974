type entry = {
  name : string;
  uid : Cred.uid;
  gid : Cred.gid;
  gecos : string;
  home : string;
  shell : string;
}

type group_entry = { group_name : string; gid : Cred.gid; members : string list }

let nonempty_lines text =
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

let parse_uid_field line s =
  match int_of_string_opt s with
  | Some v when v >= 0 && v <= Nv_vm.Word.max_value -> Ok v
  | Some _ | None -> Error (Printf.sprintf "bad uid/gid field in %S" line)

let parse text =
  let parse_line line =
    match String.split_on_char ':' line with
    | [ name; _password; uid; gid; gecos; home; shell ] -> (
      match (parse_uid_field line uid, parse_uid_field line gid) with
      | Ok uid, Ok gid -> Ok { name; uid; gid; gecos; home; shell }
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    | _ -> Error (Printf.sprintf "malformed passwd line %S" line)
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with Ok e -> all (e :: acc) rest | Error _ as e -> e)
  in
  all [] (nonempty_lines text)

let serialize entries =
  entries
  |> List.map (fun e ->
         Printf.sprintf "%s:x:%d:%d:%s:%s:%s" e.name e.uid e.gid e.gecos e.home e.shell)
  |> String.concat "\n"
  |> fun body -> body ^ "\n"

let parse_group text =
  let parse_line line =
    match String.split_on_char ':' line with
    | [ group_name; _password; gid; members ] -> (
      match parse_uid_field line gid with
      | Ok gid ->
        let members =
          if members = "" then [] else String.split_on_char ',' members
        in
        Ok { group_name; gid; members }
      | Error _ as e -> e)
    | _ -> Error (Printf.sprintf "malformed group line %S" line)
  in
  let rec all acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line line with Ok e -> all (e :: acc) rest | Error _ as e -> e)
  in
  all [] (nonempty_lines text)

let serialize_group groups =
  groups
  |> List.map (fun g ->
         Printf.sprintf "%s:x:%d:%s" g.group_name g.gid (String.concat "," g.members))
  |> String.concat "\n"
  |> fun body -> body ^ "\n"

let lookup entries name = List.find_opt (fun e -> e.name = name) entries

let lookup_uid entries uid = List.find_opt (fun e -> e.uid = uid) entries

(* ------------------------------------------------------------------ *)
(* Indexed lookup                                                      *)
(* ------------------------------------------------------------------ *)

(* The linear scans above are fine for the five-entry sample database
   but O(n) per request once the population reaches fleet scale. The
   index is the distinct uids, sorted and unboxed for bisection, beside
   the earliest file entry carrying each (the scans' first match). *)

type index = {
  uids : int array;  (* sorted, distinct *)
  by_uid : entry array;  (* by_uid.(k): earliest file entry with uid uids.(k) *)
  mutable comparisons : int;
}

let index entries =
  let entries = Array.of_list entries in
  let keys = Array.map (fun e -> e.uid) entries in
  let order = Array.init (Array.length entries) Fun.id in
  (* Stable: equal uids keep file order, so each run starts with the
     entry [lookup_uid] returns. *)
  Array.stable_sort (fun i j -> Int.compare keys.(i) keys.(j)) order;
  let kept = ref 0 in
  Array.iter
    (fun i ->
      if !kept = 0 || keys.(order.(!kept - 1)) <> keys.(i) then begin
        order.(!kept) <- i;
        incr kept
      end)
    order;
  let order = Array.sub order 0 !kept in
  {
    uids = Array.map (fun i -> keys.(i)) order;
    by_uid = Array.map (fun i -> entries.(i)) order;
    comparisons = 0;
  }

let find_uid idx uid =
  let rec bisect lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      idx.comparisons <- idx.comparisons + 1;
      let k = idx.uids.(mid) in
      if k = uid then Some idx.by_uid.(mid)
      else if k < uid then bisect (mid + 1) hi
      else bisect lo (mid - 1)
  in
  bisect 0 (Array.length idx.uids - 1)

let index_size idx = Array.length idx.uids

let comparisons idx = idx.comparisons

(* ------------------------------------------------------------------ *)
(* Synthetic populations                                               *)
(* ------------------------------------------------------------------ *)

(* UIDs start above the sample database so a generated population can
   be appended to it without collisions. The list is emitted in a
   seed-determined shuffle so nothing downstream can accidentally rely
   on file order being uid order. *)
let generate_base_uid = 10_000

let generate ?(seed = 2008) n =
  if n < 0 then invalid_arg "Passwd.generate: negative population";
  let entries =
    Array.init n (fun i ->
        let name = Printf.sprintf "u%07d" i in
        {
          name;
          uid = generate_base_uid + i;
          gid = generate_base_uid + i;
          gecos = "synthetic user";
          home = "/home/" ^ name;
          shell = "/bin/sh";
        })
  in
  Nv_util.Prng.shuffle (Nv_util.Prng.create ~seed) entries;
  Array.to_list entries

let reexpress ~f text =
  match parse text with
  | Error _ as e -> e
  | Ok entries ->
    Ok (serialize (List.map (fun e -> { e with uid = f e.uid; gid = f e.gid }) entries))

let reexpress_group ~f text =
  match parse_group text with
  | Error _ as e -> e
  | Ok groups -> Ok (serialize_group (List.map (fun g -> { g with gid = f g.gid }) groups))

let sample =
  [
    { name = "root"; uid = 0; gid = 0; gecos = "root"; home = "/root"; shell = "/bin/sh" };
    {
      name = "daemon"; uid = 1; gid = 1; gecos = "daemon"; home = "/usr/sbin";
      shell = "/usr/sbin/nologin";
    };
    {
      name = "www"; uid = 33; gid = 33; gecos = "www data"; home = "/var/www";
      shell = "/usr/sbin/nologin";
    };
    {
      name = "alice"; uid = 1000; gid = 1000; gecos = "Alice"; home = "/home/alice";
      shell = "/bin/sh";
    };
    {
      name = "bob"; uid = 1001; gid = 1001; gecos = "Bob"; home = "/home/bob";
      shell = "/bin/sh";
    };
  ]

let sample_groups =
  [
    { group_name = "root"; gid = 0; members = [] };
    { group_name = "daemon"; gid = 1; members = [] };
    { group_name = "www"; gid = 33; members = [] };
    { group_name = "users"; gid = 100; members = [ "alice"; "bob" ] };
  ]
