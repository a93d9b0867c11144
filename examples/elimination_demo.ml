(* The elimination stack, inside out (paper Section 4).

   Run with:  dune exec examples/elimination_demo.exe

   We run a contended push/pop workload on the elimination stack, verify
   the composed graph plus both sub-libraries on every sampled execution,
   report how many operations were served by elimination, and dump the
   DOT of one execution where an elimination actually happened — the
   eliminated pair shows up as a push and a pop committed in the SAME
   machine step. *)

open Compass_rmc
open Compass_event
open Compass_machine
open Compass_spec
open Compass_dstruct
open Compass_clients
open Prog.Syntax

let vi n = Value.Int n

let () =
  Format.printf "== elimination stack: composition check ==@.@.";
  let st = Es_compose.fresh_stats () in
  let report =
    Explore.random ~execs:6_000 ~seed:2
      (Es_compose.make ~pushers:2 ~poppers:2 ~ops:2 st)
  in
  Format.printf
    "%a@.@.ES events from the base stack: %d@.eliminated push/pop pairs:   \
     %d@.@."
    Explore.pp_report report
    (Atomic.get st.Es_compose.via_base)
    (Atomic.get st.Es_compose.eliminated);

  (* Hunt for an execution with an elimination and dump its graphs: the
     judge marks the first finished execution whose exchanger paired a
     push with a pop as the sample's target, which stops the sample.
     Uniform scheduling rarely lines the two exchangers up (a few
     executions in 200,000), hence the budget. *)
  Format.printf "== one execution with an elimination, as DOT ==@.@.";
  let found = ref None in
  let hunt =
    {
      Explore.name = "elimination-hunt";
      build =
        (fun m ->
          let t = Elimination.create m ~name:"es" in
          let pushes =
            Prog.returning_unit
              (let* () = Elimination.push t (vi 1) in
               Elimination.push t (vi 2))
          in
          let pops _ =
            Prog.returning_unit
              (let* _ = Elimination.pop t in
               let* _ = Elimination.pop t in
               Prog.return ())
          in
          Machine.spawn m [ pushes; pops 0; pops 1 ];
          function
          | Machine.Finished _
            when Graph.so (Exchanger.graph t.Elimination.ex) <> [] ->
              found := Some t;
              Explore.Violation "elimination happened"
          | _ -> Explore.Pass);
    }
  in
  let uniform =
    {
      Explore.worker = ignore;
      oracle = (fun () seed -> Oracle.random ~seed);
      observe = (fun () _ _ _ _ -> ());
    }
  in
  ignore
    (Explore.sample ~until_violation:true ~execs:200_000 ~seed:0 uniform
       (fun () -> hunt));
  match !found with
  | Some t ->
      let es_g = Elimination.graph t in
      print_string (Graph.to_dot es_g);
      Format.printf "@.(note the Push/Pop pair sharing one commit step — \
                     committed atomically together, as Section 4.2's helping \
                     requires)@.@.";
      let violations =
        Stack_spec.consistent es_g
        @ Stack_spec.consistent (Treiber.graph t.Elimination.base)
        @ Exchanger_spec.consistent (Exchanger.graph t.Elimination.ex)
      in
      Format.printf "consistency of all three graphs: %a@." Check.pp violations
  | None ->
      Format.printf "no elimination found in the sampled executions \
                     (try more attempts)@."
