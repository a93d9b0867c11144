(** The execution machine: a program DSL over the ORC11 substrate
    ({!Prog}), commit annotations realising logically-atomic commit points
    ({!Commit}), the interleaving interpreter ({!Machine}), decision oracles
    ({!Oracle}) and their seeds ({!Rng}), traces ({!Trace}), and the
    stateless model-checking drivers ({!Explore}). *)

module Prog = Prog
module Commit = Commit
module Deps = Deps
module Decision = Decision
module Oracle = Oracle
module Rng = Rng
module Trace = Trace
module Access = Access
module Override = Override
module Rc11 = Rc11
module Machine = Machine
module Dpor = Dpor
module Explore = Explore
