open Compass_rmc
open Compass_machine
open Compass_spec
open Compass_dstruct

(* The experiment battery of DESIGN.md (E1-E7): everything the paper's
   evaluation claims, run end to end, with a machine-readable summary.
   [bin/compass report] prints it; EXPERIMENTS.md records a reference
   run. *)

type line = {
  id : string;
  name : string;
  paper : string;  (** the paper's claim *)
  measured : string;  (** what this run measured *)
  ok : bool;
}

let pp_line ppf l =
  Format.fprintf ppf "@[<v2>[%s] %s: %s@ paper:    %s@ measured: %s@]"
    (if l.ok then "OK" else "FAIL")
    l.id l.name l.paper l.measured

let queue_factories = [ Msqueue.instantiate; Hwqueue.instantiate ]
let stack_factories = [ Treiber.instantiate; Elimination.instantiate ]

(* SC baselines, included in the matrix only (MP etc. hold trivially). *)
let matrix_queue_factories =
  queue_factories @ [ Msqueue_fences.instantiate; Lockqueue.instantiate ]
let matrix_stack_factories = stack_factories @ [ Lockstack.instantiate ]

(* -- E1: MP client (Figures 1 and 3) ------------------------------------------ *)

let e1 ?(max_execs = 150_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  List.concat_map
    (fun (factory : Iface.queue_factory) ->
      let st = Mp.fresh_stats () in
      let r = Explore.dfs ~jobs ~reduce ~max_execs (Mp.make factory st) in
      let stw = Mp.fresh_stats () in
      let rw =
        Explore.dfs ~jobs ~reduce ~max_execs (Mp.make_weak factory stw)
      in
      [
        {
          id = "E1";
          name = Printf.sprintf "MP with %s" factory.q_name;
          paper =
            "right thread's dequeue returns 41 or 42, never empty; \
             deqPerm(2) protocol holds; provable with LAThb, not with \
             Cosmo-style LATso";
          measured =
            Printf.sprintf
              "%d executions (%s): 41 x%d, 42 x%d, empty x%d; LAThb excludes \
               empty in %d/%d, LATso in %d/%d"
              r.Explore.executions
              (if r.Explore.complete then "exhaustive" else "budget")
              st.Mp.right_got_41 st.Mp.right_got_42 st.Mp.right_empty
              st.Mp.excluded_hb st.Mp.executions st.Mp.excluded_so
              st.Mp.executions;
          ok =
            Explore.ok r && st.Mp.right_empty = 0
            && st.Mp.excluded_hb = st.Mp.executions
            && st.Mp.excluded_so = 0;
        };
        {
          id = "E1";
          name = Printf.sprintf "MP ablation (relaxed flag) with %s" factory.q_name;
          paper =
            "without the release-acquire flag the empty outcome is \
             unavoidable (the behaviour Cosmo cannot exclude)";
          measured =
            Printf.sprintf "%d executions: empty observed x%d (queue itself \
                            stays consistent)"
              rw.Explore.executions stw.Mp.right_empty;
          ok = Explore.ok rw && stw.Mp.right_empty > 0;
        };
      ])
    queue_factories

(* -- E2: spec-style satisfaction matrix (Figure 2's hierarchy) ---------------- *)

type matrix_cell = {
  impl : string;
  style : Styles.style;
  tally : Styles.tally;
}

let matrix ?(dfs_execs = 25_000) ?(rand_execs = 2_000) ?(jobs = 1)
    ?(reduce = Machine.RNone) () =
  let run_queue (factory : Iface.queue_factory) style =
    let tally = Styles.fresh_tally () in
    let sc =
      Harness.scenario ~name:factory.q_name (fun m ->
          let q = factory.make_queue m ~name:"q" in
          let enq tid i = q.Iface.enq (Harness.val_of ~tid ~i) in
          let threads =
            [
              Prog.returning_unit (Prog.seq [ enq 0 0; enq 0 1 ]);
              Prog.returning_unit (Prog.seq [ enq 1 0 ]);
              Prog.returning_unit
                (Prog.seq
                   [
                     Prog.bind (q.Iface.deq ()) (fun _ -> Prog.return ());
                     Prog.bind (q.Iface.deq ()) (fun _ -> Prog.return ());
                   ]);
              Prog.returning_unit
                (Prog.bind (q.Iface.deq ()) (fun _ -> Prog.return ()));
            ]
          in
          ( threads,
            fun _ ->
              Styles.tally_one tally (Styles.check style Styles.Queue q.Iface.q_graph);
              Explore.Pass ))
    in
    ignore (Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs sc);
    ignore (Explore.random ~execs:rand_execs ~seed:23 sc);
    { impl = factory.q_name; style; tally }
  in
  let run_stack (factory : Iface.stack_factory) style =
    let tally = Styles.fresh_tally () in
    let sc =
      Harness.scenario ~name:factory.s_name (fun m ->
          let s = factory.make_stack m ~name:"s" in
          let push tid i = s.Iface.push (Harness.val_of ~tid ~i) in
          let threads =
            [
              Prog.returning_unit (Prog.seq [ push 0 0; push 0 1 ]);
              Prog.returning_unit (Prog.seq [ push 1 0 ]);
              Prog.returning_unit
                (Prog.seq
                   [
                     Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ());
                     Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ());
                   ]);
              Prog.returning_unit
                (Prog.bind (s.Iface.pop ()) (fun _ -> Prog.return ()));
            ]
          in
          ( threads,
            fun _ ->
              Styles.tally_one tally (Styles.check style Styles.Stack s.Iface.s_graph);
              Explore.Pass ))
    in
    ignore (Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs sc);
    ignore (Explore.random ~execs:rand_execs ~seed:23 sc);
    { impl = factory.s_name; style; tally }
  in
  List.concat_map
    (fun f -> List.map (run_queue f) Styles.all_styles)
    matrix_queue_factories
  @ List.concat_map
      (fun f -> List.map (run_stack f) Styles.all_styles)
      matrix_stack_factories

let pp_matrix ppf cells =
  let impls = List.sort_uniq compare (List.map (fun c -> c.impl) cells) in
  Format.fprintf ppf "%-14s" "impl \\ style";
  List.iter
    (fun s -> Format.fprintf ppf " %-12s" (Styles.style_name s))
    Styles.all_styles;
  Format.pp_print_newline ppf ();
  List.iter
    (fun impl ->
      Format.fprintf ppf "%-14s" impl;
      List.iter
        (fun style ->
          match
            List.find_opt (fun c -> c.impl = impl && c.style = style) cells
          with
          | Some c ->
              Format.fprintf ppf " %-12s"
                (if Styles.satisfied c.tally then "sat"
                 else
                   Printf.sprintf "FAIL %d/%d" c.tally.Styles.failed
                     c.tally.Styles.execs)
          | None -> Format.fprintf ppf " %-12s" "-")
        Styles.all_styles;
      Format.pp_print_newline ppf ())
    impls

(* The paper's expectations for the matrix.  "sat" means every explored
   execution passed; note SC-abs must fail for every relaxed
   implementation (Section 2.3), and LATabs styles must fail for the HW
   queue (Section 3.2). *)
let e2 ?dfs_execs ?rand_execs ?jobs ?reduce () =
  let cells = matrix ?dfs_execs ?rand_execs ?jobs ?reduce () in
  let sat impl style =
    match List.find_opt (fun c -> c.impl = impl && c.style = style) cells with
    | Some c -> Styles.satisfied c.tally
    | None -> false
  in
  let expectations =
    [
      (* impl, style, expected-satisfied *)
      ("ms-queue", Styles.Hb, true);
      ("ms-queue", Styles.So_abs, true);
      ("ms-queue", Styles.Hb_abs, true);
      ("ms-queue", Styles.Hist, true);
      ("ms-queue", Styles.Sc_abs, false);
      (* The fence-based MS queue sits exactly where the access-based one
         does: fences and accesses are interchangeable at the spec level. *)
      ("ms-queue-fences", Styles.Hb, true);
      ("ms-queue-fences", Styles.Hb_abs, true);
      ("ms-queue-fences", Styles.Hist, true);
      ("ms-queue-fences", Styles.Sc_abs, false);
      ("hw-queue", Styles.Hb, true);
      ("hw-queue", Styles.So_abs, false);
      ("hw-queue", Styles.Hb_abs, false);
      ("hw-queue", Styles.Hist, true);
      ("treiber", Styles.Hb, true);
      ("treiber", Styles.Hist, true);
      ("treiber", Styles.Sc_abs, false);
      ("elimination", Styles.Hb, true);
      ("elimination", Styles.Hist, true);
      (* The coarse-grained SC baselines satisfy everything, including the
         SC-strength spec — Section 3.1's "sufficient synchronisation"
         limit. *)
      ("lock-queue", Styles.Sc_abs, true);
      ("lock-queue", Styles.Hist, true);
      ("lock-stack", Styles.Sc_abs, true);
      ("lock-stack", Styles.Hist, true);
    ]
  in
  let ok =
    List.for_all (fun (impl, style, expect) -> sat impl style = expect) expectations
  in
  ( cells,
    {
      id = "E2";
      name = "spec-style satisfaction matrix";
      paper =
        "MS queue satisfies LATabs-hb (hence LATso-abs, LAThb); HW queue \
         satisfies only LAThb (+ offline LAThist); Treiber and the \
         elimination stack satisfy LAThist/LAThb; nothing relaxed reaches \
         SC strength — only the coarse-grained lock baselines do";
      measured =
        (let b = Buffer.create 256 in
         let ppf = Format.formatter_of_buffer b in
         pp_matrix ppf cells;
         Format.pp_print_flush ppf ();
         "\n" ^ Buffer.contents b);
      ok;
    } )

(* -- E2b: strong FIFO recovery under external synchronisation (§3.1) ----------- *)

let e2b ?(max_execs = 60_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  let results =
    List.map
      (fun (factory : Iface.queue_factory) ->
        let st = Strong_fifo.fresh_stats () in
        let r =
          Explore.dfs ~jobs ~reduce ~max_execs (Strong_fifo.make factory st)
        in
        let broke = ref 0 in
        let rc =
          Explore.dfs ~jobs ~reduce ~max_execs
            (Strong_fifo.make_control factory broke)
        in
        (factory.q_name, r, rc, !broke))
      queue_factories
  in
  {
    id = "E2b";
    name = "strong FIFO recovery under a client lock (Section 3.1)";
    paper =
      "a client adding sufficient external synchronisation knows lhb is \
       total and regains the strong FIFO condition (d', d) ∈ lhb — for any \
       implementation, even the weak HW queue";
    measured =
      String.concat "; "
        (List.map
           (fun (name, (r : Explore.report), (rc : Explore.report), broke) ->
             Printf.sprintf
               "%s: %d locked executions all totally ordered + strong FIFO \
                + SC-empty; bare control: lhb non-total in %d/%d"
               name r.Explore.executions broke rc.Explore.executions)
           results);
    ok =
      List.for_all
        (fun (_, r, rc, broke) -> Explore.ok r && Explore.ok rc && broke > 0)
        results;
  }

(* -- E3: HW queue vs commit-point abstract states ------------------------------ *)

let e3 ?(max_execs = 60_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  let tally_abs = Styles.fresh_tally () and tally_hist = Styles.fresh_tally () in
  let sc =
    Harness.scenario ~name:"hw-abs" (fun m ->
        let t = Hwqueue.create m ~name:"q" in
        let threads =
          [
            Prog.returning_unit (Hwqueue.enq t (Value.Int 1));
            Prog.returning_unit (Hwqueue.enq t (Value.Int 2));
            Prog.returning_unit
              (Prog.bind (Hwqueue.deq t) (fun _ -> Prog.return ()));
          ]
        in
        ( threads,
          fun _ ->
            Styles.tally_one tally_abs (Queue_spec.abstract_state (Hwqueue.graph t));
            Styles.tally_one tally_hist
              (Styles.check Styles.Hist Styles.Queue (Hwqueue.graph t));
            Explore.Pass ))
  in
  ignore (Explore.dfs ~jobs ~reduce ~max_execs sc);
  {
    id = "E3";
    name = "Herlihy-Wing: abstract states fail, linearisation exists";
    paper =
      "constructing the abstract state at HW commit points is not possible \
       (needs prophecy); the weaker LAThb/offline linearisation works \
       (Section 3.2)";
    measured =
      Printf.sprintf
        "commit-point abstract state FAILS in %d/%d executions; offline \
         linearisation (LAThist search) holds in %d/%d"
        tally_abs.Styles.failed tally_abs.Styles.execs
        (tally_hist.Styles.execs - tally_hist.Styles.failed)
        tally_hist.Styles.execs;
    ok = tally_abs.Styles.failed > 0 && tally_hist.Styles.failed = 0;
  }

(* -- E4: SPSC ------------------------------------------------------------------ *)

let e4 ?(dfs_execs = 30_000) ?(rand_execs = 3_000) ?(jobs = 1)
    ?(reduce = Machine.RNone) () =
  List.map
    (fun (factory : Iface.queue_factory) ->
      let st = Spsc_client.fresh_stats () in
      let r1 =
        Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs
          (Spsc_client.make ~n:2 ~retries:3 factory st)
      in
      let r2 =
        Explore.random ~execs:rand_execs ~seed:29
          (Spsc_client.make ~n:4 factory st)
      in
      {
        id = "E4";
        name = Printf.sprintf "SPSC with %s" factory.q_name;
        paper = "derived SPSC specs give end-to-end FIFO: a_c = a_p";
        measured =
          Printf.sprintf
            "%d DFS + %d random executions (%d distinct), FIFO held in all \
             (%d retries on empty)"
            r1.Explore.executions r2.Explore.executions r2.Explore.distinct
            st.Spsc_client.empties;
        ok = Explore.ok r1 && Explore.ok r2;
      })
    queue_factories

(* -- E5: Treiber LAThist ------------------------------------------------------- *)

let e5 ?(max_execs = 40_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  let total = ref 0 and direct = ref 0 and searched = ref 0 in
  let sc =
    Harness.scenario ~name:"treiber-hist" (fun m ->
        let t = Treiber.create m ~name:"s" in
        let threads =
          [
            Prog.returning_unit (Treiber.push t (Value.Int 1));
            Prog.returning_unit (Treiber.push t (Value.Int 2));
            Prog.returning_unit
              (Prog.bind (Treiber.pop t) (fun _ -> Prog.return ()));
            Prog.returning_unit
              (Prog.bind (Treiber.pop t) (fun _ -> Prog.return ()));
          ]
        in
        ( threads,
          fun _ ->
            incr total;
            let g = Treiber.graph t in
            if Linearize.commit_order_valid Linearize.Stack g then incr direct
            else begin
              match Linearize.search Linearize.Stack g with
              | Linearize.Linearizable _ -> incr searched
              | _ -> ()
            end;
            if Stack_spec.consistent g = [] then Explore.Pass
            else Explore.Violation "inconsistent" ))
  in
  ignore (Explore.dfs ~jobs ~reduce ~max_execs sc);
  {
    id = "E5";
    name = "Treiber stack: linearisable history (Figure 4)";
    paper =
      "the relaxed Treiber stack satisfies LAThist; [to] is derivable from \
       lhb plus the head's modification order (= our commit order)";
    measured =
      Printf.sprintf
        "%d executions: commit order is a valid [to] in %d; the remaining %d \
         (stale empty reads) linearise by reordering; 0 unlinearisable"
        !total !direct !searched;
    ok = !total > 0 && !direct + !searched = !total;
  }

(* -- E6: exchanger + elimination stack (Section 4) ------------------------------ *)

let e6 ?(dfs_execs = 40_000) ?(rand_execs = 4_000) ?(jobs = 1)
    ?(reduce = Machine.RNone) () =
  let stx = Resource_exchange.fresh_stats () in
  let rx =
    Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs
      (Resource_exchange.make ~threads:2 stx)
  in
  (* DFS explores uncontended schedules first, so small budgets may see no
     matches; a random leg makes swaps occur reliably. *)
  let rx_rand =
    Explore.random ~execs:(max rand_execs 2_000) ~seed:37
      (Resource_exchange.make ~threads:2 stx)
  in
  let stes = Es_compose.fresh_stats () in
  let res =
    Explore.random ~execs:(max rand_execs 4_000) ~seed:31
      (Es_compose.make ~pushers:2 ~poppers:2 ~ops:2 stes)
  in
  [
    {
      id = "E6";
      name = "exchanger: matched pairs, atomic helping, resource transfer";
      paper =
        "first RMC exchanger spec: symmetric so pairs committed atomically \
         together; supports resource exchange at commit points";
      measured =
        Printf.sprintf
          "%d executions (%d distinct in the random leg): %d swaps, %d \
           failed exchanges, all consistent; non-atomic resource reads \
           race-free"
          (rx.Explore.executions + rx_rand.Explore.executions)
          rx_rand.Explore.distinct stx.Resource_exchange.swaps
          stx.Resource_exchange.fails;
      ok = Explore.ok rx && Explore.ok rx_rand && stx.Resource_exchange.swaps > 0;
    };
    {
      id = "E6";
      name = "elimination stack composition";
      paper =
        "the ES satisfies the stack specs assuming only the parts' LAThb \
         specs; eliminated pairs commit atomically together, preserving \
         LIFO";
      measured =
        Printf.sprintf
          "%d executions (%d distinct): StackConsistent + simulation held \
           in all; %d ops via base stack, %d eliminated pairs"
          res.Explore.executions res.Explore.distinct
          stes.Es_compose.via_base stes.Es_compose.eliminated;
      ok = Explore.ok res && stes.Es_compose.eliminated > 0;
    };
  ]

(* -- E8: Chase-Lev work-stealing deque (the paper's Section 6 future work) ------ *)

let e8 ?(dfs_execs = 120_000) ?(rand_execs = 120_000) ?(jobs = 1)
    ?(reduce = Machine.RNone) () =
  let st = Ws_client.fresh_stats () in
  let r1 =
    Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs
      (Ws_client.make ~tasks:2 ~thieves:1 ~steals:1 st)
  in
  let r2 =
    Explore.random ~execs:(rand_execs / 4) ~seed:3
      (Ws_client.make ~tasks:3 ~thieves:2 ~steals:2 st)
  in
  let stw = Ws_client.fresh_stats () in
  let rw =
    Explore.random ~execs:(max rand_execs 60_000) ~seed:1
      (Ws_client.make ~weak_fences:true ~tasks:2 ~thieves:1 ~steals:2 stw)
  in
  [
    {
      id = "E8";
      name = "Chase-Lev work-stealing deque (extension: Section 6 future work)";
      paper =
        "future work: apply the Compass approach to work-stealing queues \
         [Chase-Lev; Le et al.].  Our WsDequeConsistent conditions: unique \
         takes, owner-sequential ops, steal order = push order, owner-LIFO, \
         and a *weaker* empty condition than the queue's (the owner's \
         bottom reservation precedes its pop commit)";
      measured =
        Printf.sprintf
          "%d executions: 0 violations; %d pops, %d steals, %d empty steals; \
           LAThist holds throughout"
          (r1.Explore.executions + r2.Explore.executions)
          st.popped st.stolen st.empty_steals;
      ok = Explore.ok r1 && Explore.ok r2 && st.stolen > 0;
    };
    {
      id = "E8";
      name = "Chase-Lev ablation: SC fences weakened to acq-rel";
      paper =
        "the take/steal race on the last element needs the SC fences \
         [Le et al.]; with weaker fences elements are taken twice";
      measured =
        (let violating =
           rw.Explore.executions - rw.Explore.passed - rw.Explore.discarded
         in
         Printf.sprintf
           "%d executions: %d violating (a task taken twice / ws-uniq) — the \
            double-take the SC fences prevent"
           rw.Explore.executions violating);
      ok = rw.Explore.violations <> [];
    };
  ]

(* -- E7: effort table ----------------------------------------------------------- *)

(* The paper reports proof effort (KLOC of Coq).  Our counterpart: lines of
   checking/verification code per library, plus the checking statistics.
   LoC numbers are computed by [bin/compass report] from the source tree;
   here we record the paper's reference points. *)
let e7_paper_numbers =
  [
    ("library verifications", "1.5-3.0 KLOC each, median 2.1 KLOC");
    ("client verifications", "0.1-0.5 KLOC each, median 0.2 KLOC");
    ("Treiber stack (Iris/Coq)", "2.2 KLOC vs 12 KLOC in Isabelle [15]");
  ]

(* -- the whole battery ----------------------------------------------------------- *)

let all ?(quick = false) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  let scale n = if quick then n / 10 else n in
  e1 ~max_execs:(scale 150_000) ~jobs ~reduce ()
  @ (let _, line =
       e2 ~dfs_execs:(scale 25_000) ~rand_execs:(scale 2_000) ~jobs ~reduce ()
     in
     [ line ])
  @ [ e2b ~max_execs:(scale 60_000) ~jobs ~reduce () ]
  @ [ e3 ~max_execs:(scale 60_000) ~jobs ~reduce () ]
  @ e4 ~dfs_execs:(scale 30_000) ~rand_execs:(scale 3_000) ~jobs ~reduce ()
  @ [ e5 ~max_execs:(scale 40_000) ~jobs ~reduce () ]
  @ e6 ~dfs_execs:(scale 40_000) ~rand_execs:(scale 4_000) ~jobs ~reduce ()
  @ e8 ~dfs_execs:(scale 120_000)
      ~rand_execs:(max (scale 120_000) 60_000)
      ~jobs ~reduce ()
