(* The naive reference explorer — see reference.mli. *)

module Seen = Hashtbl.Make (struct
  type t = int array * int array * int * int array

  let equal = ( = )
  let hash k = Hashtbl.hash_param 64 256 k
end)

exception Too_many_states

(* Breadth-first over every reachable symbolic state, calling [visit]
   once per distinct state. *)
let explore ~limit t visit =
  let dim = (Mc.Explorer.compiled t).Ta.Compiled.c_nclocks + 1 in
  let pool = Zone.Dbm.Pool.create dim in
  let seen = Seen.create 1024 and queue = Queue.create () in
  let add (st : Mc.Explorer.state) =
    let key =
      (st.st_locs, st.st_vars, st.st_mon, Zone.Dbm.to_ints st.st_zone)
    in
    if not (Seen.mem seen key) then begin
      if Seen.length seen >= limit then raise Too_many_states;
      Seen.add seen key ();
      visit st;
      Queue.push st queue
    end
  in
  let initial = Mc.Explorer.initial_state t in
  if not (Zone.Dbm.is_empty initial.st_zone) then add initial;
  while not (Queue.is_empty queue) do
    let st = Queue.pop queue in
    List.iter
      (fun cd -> Option.iter add (Mc.Explorer.fire t pool st cd))
      (Mc.Explorer.candidates t st)
  done

(* The larger of a running sup and one more state's clock supremum [b];
   at equal values the non-strict bound is the larger. *)
let join ~ceiling acc b =
  match acc with
  | Mc.Explorer.Sup_exceeds _ -> acc
  | _ when Zone.Bound.is_infinite b -> Mc.Explorer.Sup_exceeds ceiling
  | Mc.Explorer.Sup_unreached ->
    Mc.Explorer.Sup (Zone.Bound.constant b, Zone.Bound.is_strict b)
  | Mc.Explorer.Sup (v0, s0) ->
    let v = Zone.Bound.constant b and s = Zone.Bound.is_strict b in
    if v > v0 || (v = v0 && s0 && not s) then Mc.Explorer.Sup (v, s) else acc

let sup ?(limit = Mc.Explorer.default_limit) net ~trigger ~response ~ceiling =
  let clock = Mc.Query.delay_monitor_clock in
  let monitor = Mc.Monitor.delay ~trigger ~response ~clock ~ceiling () in
  let t = Mc.Explorer.make ~monitor ~reduce:false ~lu:false net in
  let waiting = Mc.Explorer.mon_in t "Waiting" in
  let ci = Ta.Compiled.clock_index (Mc.Explorer.compiled t) clock in
  let best = ref Mc.Explorer.Sup_unreached in
  match
    explore ~limit t (fun st ->
        if waiting st then
          best := join ~ceiling !best (Zone.Dbm.sup_clock st.st_zone ci))
  with
  | () -> Some !best
  | exception Too_many_states -> None
