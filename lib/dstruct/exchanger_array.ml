open Compass_rmc
open Compass_event
open Compass_machine
open Prog.Syntax

(* An array of exchangers — Section 4.1: "the elimination mechanism can be
   implemented with an exchanger (which in turn can be implemented as an
   array of exchangers)".

   [slots] independent single-slot exchangers share one event graph, so
   the composite satisfies exactly the same ExchangerConsistent spec: a
   match on any slot is a matched pair in the shared graph.  A thread
   starts at a slot determined by its id and rotates on contention —
   deterministic (the machine's nondeterminism lives in the scheduler, not
   the program), yet spreading threads across slots. *)

type t = { slots : Exchanger.t array; graph : Graph.t; fuel : int }

let default_fuel = 8

let create ?(slots = 2) ?(fuel = default_fuel) m ~name =
  let graph = Machine.new_graph m ~name in
  let mk i =
    Exchanger.create ~graph m ~name:(Printf.sprintf "%s.%d" name i)
  in
  { slots = Array.init slots mk; graph; fuel }

let graph t = t.graph

let exchange ?(extra = fun _ -> []) t v1 =
  if Value.equal v1 Value.Null then
    invalid_arg "Exchanger_array.exchange: bottom";
  let* e1 = Prog.reserve in
  let* my_tid = Prog.tid in
  let n = Array.length t.slots in
  Prog.with_fuel_i ~fuel:t.fuel ~what:"exchange-array" (fun attempt ->
      let i = (my_tid + attempt) mod n in
      Exchanger.exchange_attempt ~extra t.slots.(i) ~e1 ~my_tid v1)

let instantiate ?slots m ~name : Iface.exchanger =
  let t = create ?slots m ~name in
  {
    Iface.x_graph = t.graph;
    exchange = (fun v -> exchange t v);
  }
