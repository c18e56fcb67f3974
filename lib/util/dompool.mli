(** Data-parallel maps over OCaml 5 domains.

    {!map_array} spawns its helper domains when called and joins them
    before it returns, so no domain outlives a call and a nested call
    simply spawns helpers of its own. *)

val map_array : ('a -> 'b) -> 'a array -> 'b array
(** [map_array f xs] computes [f xs.(i)] for every [i] and returns the
    results in order. The calling domain and up to
    [Domain.recommended_domain_count () - 1] helper domains claim
    indices from one shared counter. Every element runs to completion
    even when some raise; afterwards the exception of the {e lowest}
    failed index is re-raised with its original backtrace, so failure
    order does not depend on scheduling. [f] must therefore tolerate
    running concurrently with itself on other elements. *)

val env_default : unit -> bool
(** The process-wide parallelism default: [true] iff the [NV_PARALLEL]
    environment variable is set to ["1"]. Read on every call (not
    cached) so tests can flip it. *)
