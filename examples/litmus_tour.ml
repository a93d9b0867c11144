(* A tour of the ORC11 substrate through litmus tests, plus a hand-rolled
   litmus test written directly against the Prog DSL.

   Run with:  dune exec examples/litmus_tour.exe *)

open Compass_rmc
open Compass_machine
open Compass_clients
open Prog.Syntax

let vi n = Value.Int n

(* The stock battery: SB observable, MP forbidden under rel/acq, CoRR/LB
   forbidden, IRIW observable, fences synchronise, FAA atomic. *)
let stock () =
  Format.printf "== stock litmus battery ==@.";
  List.iter
    (fun (t : Litmus.t) ->
      let ok, report, obs = Litmus.verdict t in
      Format.printf "  %-12s %-40s %-10s observed %-6d %s@."
        report.Explore.name t.Litmus.descr
        (match t.Litmus.expect with
        | `Observable -> "observable"
        | `Forbidden -> "forbidden")
        obs
        (if ok then "OK" else "FAIL"))
    (Litmus.all ())

(* Writing your own: a "SB + release fences" test.  Release fences order
   writes but provide no read-side synchronisation, so the weak outcome
   stays observable — fences are not a global barrier. *)
let sb_with_rel_fences () =
  Format.printf "@.== custom litmus: SB with release fences ==@.";
  let both_zero = ref 0 in
  let scenario =
    {
      Explore.name = "SB+frel";
      build =
        (fun m ->
          let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
          let y = Machine.alloc m ~name:"y" ~init:(vi 0) 1 in
          let t a b =
            let* () = Prog.store a (vi 1) Mode.Rlx in
            let* () = Prog.fence Mode.F_rel in
            Prog.load b Mode.Rlx
          in
          Machine.spawn m [ t x y; t y x ];
          fun outcome ->
            match outcome with
            | Machine.Finished [| r1; r2 |] ->
                if Value.equal r1 (vi 0) && Value.equal r2 (vi 0) then
                  incr both_zero;
                Explore.Pass
            | _ -> Explore.Discard "other");
    }
  in
  let report = Explore.dfs scenario in
  Format.printf "  %a@.  both-zero observed in %d executions (still weak: \
                 release fences alone do not forbid SB)@."
    Explore.pp_report report !both_zero

(* Replaying a counterexample: run MP with a relaxed flag, find the racy
   execution, and print its trace. *)
let trace_demo () =
  Format.printf "@.== counterexample replay: MP with a racy non-atomic ==@.";
  let scenario =
    {
      Explore.name = "mp-race";
      build =
        (fun m ->
          let x = Machine.alloc m ~name:"x" ~init:(vi 0) 1 in
          let flag = Machine.alloc m ~name:"flag" ~init:(vi 0) 1 in
          let t1 =
            let* () = Prog.store x (vi 1) Mode.Na in
            Prog.returning_unit (Prog.store flag (vi 1) Mode.Rlx)
          in
          let t2 =
            let* _ = Prog.await flag Mode.Rlx (Value.equal (vi 1)) in
            Prog.load x Mode.Na
          in
          Machine.spawn m [ t1; t2 ];
          fun outcome ->
            match outcome with
            | Machine.Fault s -> Explore.Violation s
            | Machine.Finished _ -> Explore.Pass
            | _ -> Explore.Discard "other");
    }
  in
  let report = Explore.dfs scenario in
  match report.Explore.violations with
  | { Explore.message; trace } :: _ ->
      Format.printf "  found: %s@.  trace of the racy execution:@." message;
      let config = { Machine.default_config with record_trace = true } in
      let r = Explore.replay ~config scenario trace in
      Format.printf "%a@." Trace.pp (Machine.trace r.Explore.r_machine)
  | [] -> Format.printf "  no race found (unexpected)@."

let () =
  stock ();
  sb_with_rel_fences ();
  trace_demo ()
