open Compass_event
open Compass_spec

(* Forward simulation of one execution against the spec LTS: the
   commit-point search of [Libspec.search], read as a simulation verdict.
   See simrel.mli. *)

type break_ = {
  at : Event.data;
  index : int;
  prefix : Event.data list;
  states : int;
}

type result =
  | Simulates of { states : int }
  | Breaks of break_
  | Gave_up of { states : int }

let check kind g =
  let { Libspec.committed; states; outcome } = Libspec.search kind g in
  match outcome with
  | Libspec.Witness _ -> Simulates { states }
  | Libspec.Gave_up -> Gave_up { states }
  | Libspec.Breaks_at index ->
      Breaks
        {
          at = committed.(index);
          index;
          prefix = Array.to_list (Array.sub committed 0 index);
          states;
        }
