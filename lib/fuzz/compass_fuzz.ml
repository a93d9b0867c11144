(** Schedule fuzzing: search the decision tree instead of enumerating it.

    Where {!Compass_machine.Explore} proves properties of *all*
    executions up to a bound, this subsystem hunts for violating
    executions fast:

    - {!Pct}: Probabilistic Concurrency Testing — priority-based random
      scheduling with [d] priority change points;
    - {!Coverage}: execution fingerprints and site-pair interleaving
      coverage;
    - {!Corpus}: a corpus of schedule prefixes mutated fuzzer-style;
    - {!Shrink}: delta-debugging of violating decision scripts down to
      1-minimal counterexamples;
    - {!Fuzz}: the driver tying them together (uniform / PCT /
      coverage-guided modes), run on the seeded sampling loop
      {!Compass_machine.Explore.sample}. *)

module Pct = Pct
module Coverage = Coverage
module Corpus = Corpus
module Shrink = Shrink
module Fuzz = Fuzz
