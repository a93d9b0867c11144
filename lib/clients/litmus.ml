open Compass_rmc
open Compass_machine
open Prog.Syntax

(* The classic litmus tests, validating the ORC11 substrate itself: which
   weak behaviours the model must exhibit, and which it must forbid.

   Each test is a {!Harness.scenario} whose judge always passes (the
   machine-level properties — coherence, RMW atomicity, race freedom — are
   checked by construction or reported as faults); the interesting outcome
   is counted in a shared cell so tests/experiments can assert
   observability or absence after exploration. *)

type t = {
  scenario : Explore.scenario;
  observed : int Atomic.t;
      (** executions exhibiting the distinguished outcome; atomic, as the
          judge runs on every worker domain of a [--jobs] search *)
  expect : [ `Observable | `Forbidden ];
  descr : string;
}

let vi n = Value.Int n
let is1 = Value.equal (vi 1)

let alloc0 m name = Machine.alloc m ~name ~init:(vi 0) 1

(* [build m] allocates the test's cells and returns its threads and
   [shows], which says whether a finished execution (given the threads'
   results) exhibits the distinguished outcome. *)
let test ~name ~expect ~descr build =
  let observed = Atomic.make 0 in
  let scenario =
    Harness.scenario ~name (fun m ->
        let threads, shows = build m in
        ( threads,
          fun vs ->
            if shows vs then Atomic.incr observed;
            Explore.Pass ))
  in
  { scenario; observed; expect; descr }

let both_read v vs = Value.equal vs.(0) v && Value.equal vs.(1) v

(* Store Buffering: both threads may read 0 under relaxed (and even under
   SC-less rel/acq) accesses — the hallmark weak behaviour. *)
let sb ?(wmode = Mode.Rlx) ?(rmode = Mode.Rlx) () =
  test ~name:"SB" ~expect:`Observable ~descr:"SB: r1 = r2 = 0" (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let t a b =
        let* () = Prog.store a (vi 1) wmode in
        Prog.load b rmode
      in
      ([ t x y; t y x ], both_read (vi 0)))

(* Message Passing with an atomic data cell: reading flag = 1 with acquire
   after a release write forbids reading the stale x = 0. *)
let mp ?(wmode = Mode.Rel) ?(rmode = Mode.Acq) () =
  let expect =
    if Mode.releases wmode && Mode.acquires rmode then `Forbidden
    else `Observable
  in
  test ~name:"MP" ~expect ~descr:"MP: stale x = 0 after flag = 1" (fun m ->
      let x = alloc0 m "x" and flag = alloc0 m "flag" in
      let t1 =
        let* () = Prog.store x (vi 1) Mode.Rlx in
        let* () = Prog.store flag (vi 1) wmode in
        Prog.return Value.Unit
      in
      let t2 =
        let* _ = Prog.await flag rmode is1 in
        Prog.load x Mode.Rlx
      in
      ([ t1; t2 ], fun vs -> Value.equal vs.(1) (vi 0)))

(* MP through fences: relaxed accesses plus release/acquire fences must
   synchronise just like rel/acq accesses. *)
let mp_fences () =
  test ~name:"MP+fences" ~expect:`Forbidden ~descr:"MP+fences: stale x = 0"
    (fun m ->
      let x = alloc0 m "x" and flag = alloc0 m "flag" in
      let t1 =
        let* () = Prog.store x (vi 1) Mode.Rlx in
        let* () = Prog.fence Mode.F_rel in
        let* () = Prog.store flag (vi 1) Mode.Rlx in
        Prog.return Value.Unit
      in
      let t2 =
        let* _ = Prog.await flag Mode.Rlx is1 in
        let* () = Prog.fence Mode.F_acq in
        Prog.load x Mode.Rlx
      in
      ([ t1; t2 ], fun vs -> Value.equal vs.(1) (vi 0)))

(* SB with SC fences between the store and the load: the weak outcome must
   disappear — SC fences are totally ordered through the global SC view. *)
let sb_sc_fences () =
  test ~name:"SB+Fsc" ~expect:`Forbidden ~descr:"SB+Fsc: r1 = r2 = 0" (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let t a b =
        let* () = Prog.store a (vi 1) Mode.Rlx in
        let* () = Prog.fence Mode.F_sc in
        Prog.load b Mode.Rlx
      in
      ([ t x y; t y x ], both_read (vi 0)))

(* Coherence (CoRR): two reads of the same location by one thread may not
   observe writes in anti-modification order. *)
let corr () =
  test ~name:"CoRR" ~expect:`Forbidden ~descr:"CoRR: reads 2 then 1" (fun m ->
      let x = alloc0 m "x" in
      let writer =
        let* () = Prog.store x (vi 1) Mode.Rlx in
        let* () = Prog.store x (vi 2) Mode.Rlx in
        Prog.return Value.Unit
      in
      let reader =
        let* a = Prog.load x Mode.Rlx in
        let* b = Prog.load x Mode.Rlx in
        Prog.return (vi ((10 * Value.to_int_exn a) + Value.to_int_exn b))
      in
      ([ writer; reader ], fun vs -> Value.equal vs.(1) (vi 21)))

(* Coherence (CoWW): one thread's writes to a location take mo in program
   order — the final value is the program-order-last write, under either
   timestamp policy. *)
let coww () =
  test ~name:"CoWW" ~expect:`Forbidden ~descr:"CoWW: mo against po" (fun m ->
      let x = alloc0 m "x" in
      let w =
        let* () = Prog.store x (vi 1) Mode.Rlx in
        let* () = Prog.store x (vi 2) Mode.Rlx in
        Prog.return Value.Unit
      in
      ( [ w; Prog.return Value.Unit ],
        fun _ ->
          not
            (Value.equal !(Memory.latest (Machine.memory m) x).Msg.value (vi 2))
      ))

(* Coherence (CoWR): a thread cannot read below its own write. *)
let cowr () =
  test ~name:"CoWR" ~expect:`Forbidden ~descr:"CoWR: reads below own write"
    (fun m ->
      let x = alloc0 m "x" in
      let w =
        let* () = Prog.store x (vi 1) Mode.Rlx in
        Prog.load x Mode.Rlx
      in
      (* A concurrent writer, so there are several messages around. *)
      let other = Prog.returning_unit (Prog.store x (vi 2) Mode.Rlx) in
      ([ w; other ], fun vs -> Value.equal vs.(0) (vi 0)))

(* Load Buffering: ORC11 forbids po ∪ rf cycles, so r1 = r2 = 1 must be
   unobservable — automatic under interleaving semantics, asserted here. *)
let lb () =
  test ~name:"LB" ~expect:`Forbidden ~descr:"LB: r1 = r2 = 1" (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let t a b =
        let* r = Prog.load a Mode.Rlx in
        let* () = Prog.store b (vi 1) Mode.Rlx in
        Prog.return r
      in
      ([ t x y; t y x ], both_read (vi 1)))

(* IRIW: two writers, two readers; the readers may disagree on the order of
   the independent writes under rel/acq (no SC accesses in ORC11). *)
let iriw () =
  test ~name:"IRIW" ~expect:`Observable ~descr:"IRIW: readers disagree"
    (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let w l = Prog.returning_unit (Prog.store l (vi 1) Mode.Rel) in
      let r a b =
        let* ra = Prog.load a Mode.Acq in
        let* rb = Prog.load b Mode.Acq in
        Prog.return (vi ((10 * Value.to_int_exn ra) + Value.to_int_exn rb))
      in
      ( [ w x; w y; r x y; r y x ],
        fun vs -> Value.equal vs.(2) (vi 10) && Value.equal vs.(3) (vi 10) ))

(* 2+2W: needs mo-middle timestamp insertion; only observable under the
   [`Gap] timestamp policy.  Outcome x = y = 1 requires each location's
   first write to end up mo-last. *)
let two_two_w () =
  test ~name:"2+2W" ~expect:`Observable ~descr:"2+2W: final x = y = 1"
    (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let t a b =
        let* () = Prog.store a (vi 1) Mode.Rlx in
        let* () = Prog.store b (vi 2) Mode.Rlx in
        Prog.return Value.Unit
      in
      ( [ t x y; t y x ],
        fun _ ->
          Machine.join_views m;
          let read l = Machine.solo m (Prog.load l Mode.Na) in
          Value.equal (read x) (vi 1) && Value.equal (read y) (vi 1) ))

(* Write-to-Read Causality (WRC): a chain of rel/acq synchronisations is
   transitive. *)
let wrc () =
  test ~name:"WRC" ~expect:`Forbidden ~descr:"WRC: stale x = 0 at t3" (fun m ->
      let x = alloc0 m "x" and y = alloc0 m "y" in
      let t1 = Prog.returning_unit (Prog.store x (vi 1) Mode.Rel) in
      let t2 =
        let* _ = Prog.await x Mode.Acq is1 in
        Prog.returning_unit (Prog.store y (vi 1) Mode.Rel)
      in
      let t3 =
        let* _ = Prog.await y Mode.Acq is1 in
        Prog.load x Mode.Rlx
      in
      ([ t1; t2; t3 ], fun vs -> Value.equal vs.(2) (vi 0)))

(* RMW atomicity: concurrent FAAs never lose increments. *)
let faa_atomic ?(threads = 3) () =
  test ~name:"FAA" ~expect:`Forbidden ~descr:"FAA: lost increment" (fun m ->
      let c = alloc0 m "c" in
      let t = Prog.map (Prog.faa c 1 Mode.Rlx) (fun _ -> Value.Unit) in
      ( List.init threads (fun _ -> t),
        fun _ ->
          Machine.join_views m;
          let v = Machine.solo m (Prog.load c Mode.Na) in
          not (Value.equal v (vi threads)) ))

(* Deliberately racy message passing: the data cell is written and read
   *non-atomically* with no synchronisation at all, so the conflicting
   pair is unordered by hb — the machine's eager race detector faults
   the execution, and both race analyses (the RC11 race clause and the
   analyzer's vector-clock detector) must flag the same pair.  NOT part
   of [all ()]: the battery expects race-free tests; this one exists as
   the positive control for the synchronization analyzer's tests. *)
let racy_na () =
  test ~name:"RACY-NA" ~expect:`Observable
    ~descr:"racy na MP: the machine must fault, both detectors must flag"
    (fun m ->
      let x = alloc0 m "x" and flag = alloc0 m "flag" in
      let t1 =
        let* () = Prog.store ~site:"racy.data.write" x (vi 1) Mode.Na in
        let* () = Prog.store flag (vi 1) Mode.Rlx in
        Prog.return Value.Unit
      in
      let t2 =
        let* _ = Prog.load flag Mode.Rlx in
        Prog.load ~site:"racy.data.read" x Mode.Na
      in
      ([ t1; t2 ], fun _ -> true))

let all () =
  [
    sb ();
    sb_sc_fences ();
    mp ();
    mp ~wmode:Mode.Rlx ~rmode:Mode.Rlx ();
    mp_fences ();
    corr ();
    coww ();
    cowr ();
    lb ();
    iriw ();
    wrc ();
    faa_atomic ();
  ]

(* Run one litmus test exhaustively; [Ok] if the expectation holds.
   [jobs] domains share the DFS; [reduce] prunes commuted
   interleavings (the observation count then covers the representatives
   actually explored — the verdict is unaffected, because the
   distinguished outcome is invariant under commuting independent
   steps). *)
let verdict ?(max_execs = 100_000) ?config ?(jobs = 1)
    ?(reduce = Machine.RNone) t =
  let report = Explore.dfs ~jobs ~max_execs ~reduce ?config t.scenario in
  let obs = Atomic.get t.observed in
  let ok =
    Explore.ok report
    && match t.expect with `Observable -> obs > 0 | `Forbidden -> obs = 0
  in
  (ok, report, obs)
