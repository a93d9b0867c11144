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

(* -- E1: MP client (Figures 1 and 3) ------------------------------------------ *)

let e1 ?(max_execs = 150_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  List.concat_map
    (fun (factory : Iface.queue_factory) ->
      let st = Mp.fresh_stats () in
      let r = Explore.dfs ~jobs ~reduce ~max_execs (Mp.make factory st) in
      let stw = Mp.fresh_stats () in
      let rw =
        Explore.dfs ~jobs ~reduce ~max_execs
          (Mp.make ~flag_write:Mode.Rlx ~flag_read:Mode.Rlx factory stw)
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
              (Atomic.get st.Mp.right_got_41)
              (Atomic.get st.Mp.right_got_42)
              (Atomic.get st.Mp.right_empty)
              (Atomic.get st.Mp.excluded_hb)
              (Atomic.get st.Mp.executions)
              (Atomic.get st.Mp.excluded_so)
              (Atomic.get st.Mp.executions);
          ok =
            Explore.ok r && Atomic.get st.Mp.right_empty = 0
            && Atomic.get st.Mp.excluded_hb = Atomic.get st.Mp.executions
            && Atomic.get st.Mp.excluded_so = 0;
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
              rw.Explore.executions (Atomic.get stw.Mp.right_empty);
          ok = Explore.ok rw && Atomic.get stw.Mp.right_empty > 0;
        };
      ])
    queue_factories

(* -- E2: spec-style satisfaction matrix (Figure 2's hierarchy) ---------------- *)

type matrix_cell = {
  impl : string;
  style : Libspec.style;
  tally : Styles.tally;
}

(* The matrix rows are the registry entries with a ladder: the paper's
   implementations and the lock-based SC baselines.  Each row explores one
   client — two inserting threads (two values, then one) against two
   removing threads (two removals, then one) — once, and tallies every
   execution under every style: the judge only tallies and always
   passes, so all styles see the same executions. *)
let matrix ?(dfs_execs = 25_000) ?(rand_execs = 2_000) ?(jobs = 1)
    ?(reduce = Machine.RNone) () =
  let row (e : Libspec.entry) =
    let cells =
      List.map
        (fun style ->
          {
            impl = e.Libspec.struct_name;
            style;
            tally = Styles.fresh_tally ();
          })
        Libspec.all_styles
    in
    let sc =
      Harness.scenario ~name:e.Libspec.struct_name (fun m ->
          let insert, remove, g =
            match e.Libspec.impl with
            | Specreg.Queue f ->
                let q = f.Iface.make_queue m ~name:"q" in
                (q.Iface.enq, q.Iface.deq, q.Iface.q_graph)
            | Specreg.Stack f ->
                let s = f.Iface.make_stack m ~name:"s" in
                (s.Iface.push, s.Iface.pop, s.Iface.s_graph)
            | _ -> invalid_arg ("matrix: no factory for " ^ e.Libspec.key)
          in
          let ins tid i = insert (Harness.val_of ~tid ~i) in
          let rem () = Prog.bind (remove ()) (fun _ -> Prog.return ()) in
          let threads =
            [
              Prog.returning_unit (Prog.seq [ ins 0 0; ins 0 1 ]);
              Prog.returning_unit (Prog.seq [ ins 1 0 ]);
              Prog.returning_unit (Prog.seq [ rem (); rem () ]);
              Prog.returning_unit (rem ());
            ]
          in
          ( threads,
            fun _ ->
              List.iter
                (fun c ->
                  Styles.tally_one c.tally
                    (Libspec.check c.style e.Libspec.spec g))
                cells;
              Explore.Pass ))
    in
    ignore (Explore.dfs ~jobs ~reduce ~max_execs:dfs_execs sc);
    ignore (Explore.random ~jobs ~execs:rand_execs ~seed:23 sc);
    cells
  in
  List.concat_map
    (fun (e : Libspec.entry) -> if e.Libspec.ladder = [] then [] else row e)
    (Specreg.all ())

(* One row per implementation under a header row; each column is as wide
   as its widest entry. *)
let pp_matrix ppf cells =
  let impls = List.sort_uniq compare (List.map (fun c -> c.impl) cells) in
  let cell impl style =
    match List.find_opt (fun c -> c.impl = impl && c.style = style) cells with
    | Some c ->
        if Styles.satisfied c.tally then "sat"
        else
          Printf.sprintf "FAIL %d/%d"
            (Atomic.get c.tally.Styles.failed)
            (Atomic.get c.tally.Styles.execs)
    | None -> "-"
  in
  let rows =
    ("impl \\ style", List.map Libspec.style_name Libspec.all_styles)
    :: List.map
         (fun impl -> (impl, List.map (cell impl) Libspec.all_styles))
         impls
  in
  let widest entry =
    List.fold_left (fun w r -> max w (String.length (entry r))) 0 rows
  in
  let first = widest fst in
  let widths =
    List.mapi (fun i _ -> widest (fun (_, cs) -> List.nth cs i)) Libspec.all_styles
  in
  List.iter
    (fun (name, cs) ->
      Format.fprintf ppf "%-*s" first name;
      List.iter2 (fun w c -> Format.fprintf ppf " %-*s" w c) widths cs;
      Format.pp_print_newline ppf ())
    rows

(* The paper's expectations for the matrix are the registry ladders.
   "sat" means every explored execution passed; note SC-abs must fail for
   every relaxed implementation (Section 2.3), and LATabs styles must fail
   for the HW queue (Section 3.2). *)
let e2 ?dfs_execs ?rand_execs ?jobs ?reduce () =
  let cells = matrix ?dfs_execs ?rand_execs ?jobs ?reduce () in
  let sat impl style =
    match List.find_opt (fun c -> c.impl = impl && c.style = style) cells with
    | Some c -> Styles.satisfied c.tally
    | None -> false
  in
  let ok =
    List.for_all
      (fun (e : Libspec.entry) ->
        List.for_all
          (fun (style, expect) -> sat e.Libspec.struct_name style = expect)
          e.Libspec.ladder)
      (Specreg.all ())
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
        let broke = Atomic.make 0 in
        let rc =
          Explore.dfs ~jobs ~reduce ~max_execs
            (Strong_fifo.make_control factory broke)
        in
        (factory.q_name, r, rc, Atomic.get broke))
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
            Styles.tally_one tally_abs
              (Libspec.check Libspec.So_abs Libspec.queue (Hwqueue.graph t));
            Styles.tally_one tally_hist
              (Libspec.check Libspec.Hist Libspec.queue (Hwqueue.graph t));
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
        (Atomic.get tally_abs.Styles.failed)
        (Atomic.get tally_abs.Styles.execs)
        (Atomic.get tally_hist.Styles.execs
        - Atomic.get tally_hist.Styles.failed)
        (Atomic.get tally_hist.Styles.execs);
    ok =
      Atomic.get tally_abs.Styles.failed > 0
      && Atomic.get tally_hist.Styles.failed = 0;
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
        Explore.random ~jobs ~execs:rand_execs ~seed:29
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
            (Atomic.get st.Spsc_client.empties);
        ok = Explore.ok r1 && Explore.ok r2;
      })
    queue_factories

(* -- E5: Treiber LAThist ------------------------------------------------------- *)

let e5 ?(max_execs = 40_000) ?(jobs = 1) ?(reduce = Machine.RNone) () =
  (* atomic: the judge runs on every worker domain *)
  let total = Atomic.make 0
  and direct = Atomic.make 0
  and searched = Atomic.make 0 in
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
            Atomic.incr total;
            let g = Treiber.graph t in
            (match Libspec.search Libspec.Stack g with
            | { outcome = Libspec.Witness order; committed; _ } ->
                if List.equal ( == ) order (Array.to_list committed) then
                  Atomic.incr direct
                else Atomic.incr searched
            | _ -> ());
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
        (Atomic.get total) (Atomic.get direct) (Atomic.get searched);
    ok =
      Atomic.get total > 0
      && Atomic.get direct + Atomic.get searched = Atomic.get total;
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
    Explore.random ~jobs ~execs:(max rand_execs 2_000) ~seed:37
      (Resource_exchange.make ~threads:2 stx)
  in
  let stes = Es_compose.fresh_stats () in
  let res =
    Explore.random ~jobs ~execs:(max rand_execs 20_000) ~seed:31
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
          rx_rand.Explore.distinct (Atomic.get stx.Resource_exchange.swaps)
          (Atomic.get stx.Resource_exchange.fails);
      ok =
        Explore.ok rx && Explore.ok rx_rand
        && Atomic.get stx.Resource_exchange.swaps > 0;
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
          (Atomic.get stes.Es_compose.via_base)
          (Atomic.get stes.Es_compose.eliminated);
      ok = Explore.ok res && Atomic.get stes.Es_compose.eliminated > 0;
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
    Explore.random ~jobs ~execs:(rand_execs / 4) ~seed:3
      (Ws_client.make ~tasks:3 ~thieves:2 ~steals:2 st)
  in
  let stw = Ws_client.fresh_stats () in
  let rw =
    Explore.random ~jobs ~execs:(max rand_execs 60_000) ~seed:1
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
          (Atomic.get st.popped) (Atomic.get st.stolen)
          (Atomic.get st.empty_steals);
      ok = Explore.ok r1 && Explore.ok r2 && Atomic.get st.stolen > 0;
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

(* The paper reports proof effort (KLOC of Coq).  Our counterpart, lines
   of checking/verification code per library, is counted with [wc -l]
   over the source tree (EXPERIMENTS.md, E7); here we record only the
   paper's reference points. *)
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
