open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct
open Prog.Syntax

(* The resource-exchange client of Section 4.2: "each exchange call needs
   to provide the resources to be exchanged only at its commit point, and
   only if the exchange succeeds."

   Each thread owns a resource — a privately allocated cell holding a
   distinct payload, written *non-atomically*.  A thread offers the pointer
   to its cell through the exchanger; if the exchange succeeds it reads the
   partner's cell, again non-atomically.  That read is race-free only
   because the exchanger's specs transfer the owner's views across the
   match — a resource transfer in the separation-logic sense, exercised
   here through the race detector: any missing synchronisation in the
   exchanger implementation would surface as a data-race fault.

   Checked per execution: no faults, ExchangerConsistent, and conservation:
   the multiset of payloads read equals the multiset offered (each swap is
   a genuine two-way transfer). *)

type stats = {
  executions : int Atomic.t;
  swaps : int Atomic.t;
  fails : int Atomic.t;
}

let fresh_stats () =
  { executions = Atomic.make 0; swaps = Atomic.make 0; fails = Atomic.make 0 }

let payload ~tid = Value.Int (1000 + tid)

let make ?(threads = 2) (st : stats) =
  Harness.scenario
    ~name:(Printf.sprintf "resource-exchange[%d]" threads)
    (fun m ->
      let x = Exchanger.create m ~name:"x" in
      let thread tid =
        (* Allocate and initialise the private resource. *)
        let* r = Prog.alloc ~name:(Printf.sprintf "res%d" tid) 1 in
        let* () = Prog.store r (payload ~tid) Mode.Na in
        let* got = Exchanger.exchange x (Value.Ptr r) in
        match got with
        | Value.Ptr r' ->
            (* Non-atomic read of the partner's resource: safe only thanks
               to the exchanger's internal synchronisation. *)
            Prog.load r' Mode.Na
        | _ -> Prog.return Value.Null
      in
      let judge vs =
        Atomic.incr st.executions;
        let got = Array.to_list vs in
        let succeeded = List.filter (fun v -> not (Value.equal v Value.Null)) got in
        ignore (Atomic.fetch_and_add st.swaps (List.length succeeded / 2));
        ignore
          (Atomic.fetch_and_add st.fails
             (List.length got - List.length succeeded));
        match Harness.first_violation (Exchanger_spec.consistent (Exchanger.graph x)) with
        | Explore.Pass ->
            (* Conservation: successful receivers hold distinct payloads
               drawn from the offered set, and swaps pair up: if thread i
               got thread j's payload then j got i's. *)
            let owner = function
              | Value.Int p when p >= 1000 -> Some (p - 1000)
              | _ -> None
            in
            let ok = ref true in
            List.iteri
              (fun i v ->
                match owner v with
                | None -> ()
                | Some j ->
                    if j = i || j < 0 || j >= threads then ok := false
                    else if not (Value.equal vs.(j) (payload ~tid:i)) then
                      ok := false)
              got;
            if !ok then Explore.Pass
            else Explore.Violation "resource conservation broken"
        | v -> v
      in
      (List.init threads thread, judge))
