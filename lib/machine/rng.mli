(** Deterministic seed derivation.

    One independent pseudo-random seed per (base seed, stream index)
    pair, via the splitmix64 finalizer — how the seeded sampler
    ({!Explore.sample}, behind [Explore.random] and the fuzzer) gives
    every execution its own stream, so that neighbouring base seeds do
    not share executions and a run samples the same executions at every
    [--jobs] count. *)

val derive : int -> int -> int
(** [derive seed i] is a well-mixed non-negative seed for stream [i] *)
