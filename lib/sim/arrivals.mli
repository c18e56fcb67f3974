(** Open-loop arrival-time generators for fleet load simulation.

    Unlike the closed-loop WebBench clients (which wait for a response
    before issuing the next request), an open-loop source emits requests
    at times drawn from an arrival process regardless of how the system
    is keeping up — the regime where queueing delay and tail latency
    actually show. Three processes are provided:

    - {b Poisson}: exponential inter-arrival gaps at a constant rate.
    - {b Bursty}: Poisson-arriving bursts; each burst carries a
      geometrically distributed number of requests separated by short
      exponential intra-burst gaps. Long-run rate matches [rate] only
      while bursts leave room between them; see {!Bursty} for the
      clamp and the rate delivered beyond it.
    - {b Diurnal}: a nonhomogeneous Poisson process whose intensity
      follows a sinusoidal day/night cycle around [rate], sampled by
      Lewis-Shedler thinning.

    All generators are driven by {!Nv_util.Prng}; equal seeds yield
    bit-identical arrival sequences. *)

type model =
  | Poisson of { rate : float }
      (** [rate] arrivals per second, exponential gaps. *)
  | Bursty of { rate : float; burst_mean : float; intra_gap_s : float }
      (** Bursts of geometric mean size [burst_mean], [intra_gap_s]
          mean spacing inside a burst. A burst's mean cycle is
          [c = burst_mean / rate], of which it occupies
          [o = (burst_mean - 1) * intra_gap_s]; the mean gap before the
          next burst is [max (0.05 * c) (c - o)]. So the long-run rate
          is [rate] while [o <= 0.95 * c]. Beyond that the gap is
          clamped to [0.05 * c] and the rate delivered is
          [burst_mean / (0.05 * c + o)], below [rate]: at [rate] 5750,
          [burst_mean] 16 and [intra_gap_s] 0.0005 it is about
          2,100/s. *)
  | Diurnal of { rate : float; amplitude : float; period_s : float }
      (** Intensity [rate * (1 + amplitude * sin (2 pi t / period_s))];
          [amplitude] in [\[0,1\]]. *)

type t

val create : seed:int -> model -> t
(** Raises [Invalid_argument] on a non-positive rate, a [burst_mean]
    below 1, a negative [intra_gap_s], an [amplitude] outside [\[0,1\]],
    or a non-positive [period_s]. *)

val model : t -> model

val model_name : model -> string
(** ["poisson"], ["bursty"], or ["diurnal"]. *)

val next : t -> now:float -> float
(** Absolute time of the next arrival strictly after [now]. Successive
    calls with the returned times advance the process deterministically. *)
