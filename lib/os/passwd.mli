(** The [/etc/passwd] and [/etc/group] file formats, and generation of
    the diversified (reexpressed) copies used as unshared files.

    Section 3.4 of the paper keeps one reexpressed copy of each trusted
    UID-bearing file per variant ([/etc/passwd-0], [/etc/passwd-1]...)
    rather than reexpressing on the read path, which would hand the
    attacker a reusable transformation oracle. *)

type entry = {
  name : string;
  uid : Cred.uid;
  gid : Cred.gid;
  gecos : string;
  home : string;
  shell : string;
}

type group_entry = { group_name : string; gid : Cred.gid; members : string list }

val parse : string -> (entry list, string) result
(** Parse passwd-format text ([name:x:uid:gid:gecos:home:shell] lines;
    blank lines ignored). The error carries the first offending line. *)

val serialize : entry list -> string

val parse_group : string -> (group_entry list, string) result
(** [name:x:gid:member,member...] lines. *)

val serialize_group : group_entry list -> string

val lookup : entry list -> string -> entry option
(** Find an entry by user name (linear scan). *)

val lookup_uid : entry list -> Cred.uid -> entry option
(** Find an entry by uid (linear scan; the reference semantics for
    {!find_uid}). *)

(** {1 Indexed lookup}

    O(log n) lookups by uid over large populations; there is no index
    by name. The index holds the distinct uids as a sorted, unboxed
    [int array], searched by bisection, beside the earliest entry in
    file order for each. Agrees with {!lookup_uid} on any entry list,
    including ones with duplicate uids (first entry in file order
    wins). *)

type index

val index : entry list -> index
(** O(n log n): one stable sort of entry positions keyed on an unboxed
    copy of the uids, then one linear pass keeping the first entry of
    each uid. *)

val find_uid : index -> Cred.uid -> entry option

val index_size : index -> int
(** Distinct uids in the index. *)

val comparisons : index -> int
(** Cumulative key comparisons spent by {!find_uid} (one per bisection
    probe) since the index was built — lets tests pin that per-lookup
    work stays O(log n) rather than O(n). *)

val generate : ?seed:int -> int -> entry list
(** [generate n] is a synthetic population of [n] users with distinct
    names and uids (starting at 10000, above {!sample}), emitted in a
    seed-determined shuffle. Raises [Invalid_argument] on a negative
    [n]. *)

val reexpress : f:(Cred.uid -> Cred.uid) -> string -> (string, string) result
(** Apply a UID reexpression function to every UID and GID field of a
    passwd-format file, leaving everything else byte-identical. This is
    how the per-variant unshared copies are produced. *)

val reexpress_group : f:(Cred.uid -> Cred.uid) -> string -> (string, string) result

val sample : entry list
(** A small realistic passwd database: root, daemon, www (the server
    worker), and two ordinary users. Used by tests, examples and the
    case study. *)

val sample_groups : group_entry list
