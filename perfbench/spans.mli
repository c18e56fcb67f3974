(** In-memory span recorder for the benchmark's traced run.

    Spans are recorded from the harness around each call it makes into a
    layer of the program; nothing inside the program is instrumented.
    They stay in memory until {!write_chrome} writes them out at the end
    of the run. *)

type t

val create : unit -> t

val enter : t -> parent:int -> req:int -> string -> int
(** Open a span named [name] under span [parent] ([-1] for a root) for
    request [req]; returns its id. *)

val leave : t -> int -> unit
(** Close the span. *)

val with_span : t -> parent:int -> req:int -> string -> (unit -> 'a) -> 'a

val count : t -> int

val totals : t -> string -> int * float
(** [(spans, total seconds)] of every closed span with that name. *)

val self_times : t -> (string * int * float) list
(** Per span name: spans and total self seconds (duration minus the part
    covered by child spans), in order of first appearance. *)

val write_chrome : t -> meta:(string * string) list -> string -> unit
(** Write every span as a Chrome/Perfetto trace-event JSON file. *)
