open Compass_machine

val with_accesses :
  Explore.scenario -> (Access.t list -> unit) -> Explore.scenario
(** run the collector on every execution's recorded access log, just
    before the scenario's own judge.  Requires a config with
    [record_accesses = true] and a single worker ([jobs = 1] — under
    [Explore.dfs ~jobs:k] the collector would run concurrently on
    several domains). *)
