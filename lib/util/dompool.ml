(* Each index is claimed from [next] by exactly one domain, which alone
   writes its slot of [results]; the caller reads the slots only after
   joining every helper, and [Domain.join] orders the helpers' writes
   before those reads. *)
let map_array f xs =
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      results.(i) <-
        Some
          (match f xs.(i) with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = min (n - 1) (Domain.recommended_domain_count () - 1) in
  let domains = List.init (max 0 helpers) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join domains;
  (* [Array.map] visits the slots in index order, so the first [Error]
     it meets is the lowest failed index. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let env_default () =
  match Sys.getenv_opt "NV_PARALLEL" with Some "1" -> true | Some _ | None -> false
