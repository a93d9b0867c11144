(** COMPASS-OCaml — the public umbrella API.

    An executable reproduction of "Compass: Strong and Compositional
    Library Specifications in Relaxed Memory Separation Logic" (Dang, Jung,
    Choi, Nguyen, Mansky, Kang, Dreyer — PLDI 2022).

    The layers, bottom-up:

    - {!Rmc}: the ORC11 memory-model substrate — locations, values, access
      modes, timestamps, physical and logical views, messages, per-location
      histories, thread view transitions, and the global store with race
      detection (paper Section 2.3 and Section 3.1's logical views).
    - {!Machine}: the program DSL over that substrate, commit annotations
      realising logically-atomic commit points, the interleaving machine,
      and the stateless model-checking drivers (DFS and random).
    - {!Event}: Yacovet-style event graphs — events with physical/logical
      views, per-object graphs with so and derived lhb, partial-order
      utilities (Section 3.1).
    - {!Spec}: the consistency conditions (QueueConsistent, StackConsistent,
      ExchangerConsistent), commit-point abstract states, linearisable
      histories, the LAT spec-style hierarchy (Sections 2.3-3.3, 4.2), and
      the first-class specification registry ({!Spec.Libspec}).
    - {!Dstruct}: the paper's implementations — Michael-Scott queue,
      Herlihy-Wing queue, Treiber stack, exchanger, elimination stack —
      instrumented to commit events at their commit points.
    - {!Clients}: the paper's client verifications — Message-Passing
      (Figures 1 and 3), SPSC, a two-queue pipeline, resource exchange, and
      the elimination-stack composition (Section 4) — as model-checked
      scenarios, and the populated registry ({!Clients.Specreg}).
    - {!Util}: dependency-free utilities (JSON emission, stamped reports).

    Quick start: see [examples/quickstart.ml]. *)

module Rmc = Compass_rmc
module Machine = Compass_machine
module Event = Compass_event
module Spec = Compass_spec
module Dstruct = Compass_dstruct
module Clients = Compass_clients
module Util = Compass_util

val placeholder : unit -> unit
(** kept so the original scaffold keeps compiling *)

val version : string
(** the toolkit version (= {!Util.Report.version}) *)
