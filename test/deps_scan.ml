open Compass_machine

(* Step clocks by an all-pairs scan: step j joins the clock of every
   earlier step it does not commute with, then bumps its own thread's
   component.  O(n^2 * threads); the step log ({!Deps.push}) computes
   the same order one step at a time, and the deps properties check that
   both give the same trace order and races, also after truncations. *)

type t = {
  tid : int array;
  fp : Deps.footprint array;
  clock : int array array;
  seq : int array;
}

let dependent s i j =
  s.tid.(i) = s.tid.(j) || not (Deps.independent s.fp.(i) s.fp.(j))

let analyze steps =
  let n = Array.length steps in
  let tid = Array.map fst steps and fp = Array.map snd steps in
  let nt = Array.fold_left max 0 tid + 1 in
  let s = { tid; fp; clock = Array.make n [||]; seq = Array.make n 0 } in
  let cur_seq = Array.make nt 0 in
  for j = 0 to n - 1 do
    let c = Array.make nt 0 in
    for i = 0 to j - 1 do
      if dependent s i j then
        Array.iteri (fun t v -> if v > c.(t) then c.(t) <- v) s.clock.(i)
    done;
    let t = tid.(j) in
    cur_seq.(t) <- cur_seq.(t) + 1;
    c.(t) <- cur_seq.(t);
    s.clock.(j) <- c;
    s.seq.(j) <- cur_seq.(t)
  done;
  s

let hb s i j = i < j && s.clock.(j).(s.tid.(i)) >= s.seq.(i)

let races ?(from = 0) s =
  let n = Array.length s.tid in
  let out = ref [] in
  for j = max 1 from to n - 1 do
    for i = 0 to j - 1 do
      if s.tid.(i) <> s.tid.(j) && dependent s i j && hb s i j then begin
        let direct = ref true in
        for w = i + 1 to j - 1 do
          if hb s i w && hb s w j then direct := false
        done;
        if !direct then out := (i, j) :: !out
      end
    done
  done;
  List.rev !out
