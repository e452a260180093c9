(** The naive reference explorer: an answerer for the differential
    oracle that shares no search code with {!Mc.Explorer.search}.

    It is a plain breadth-first search over {!Mc.Explorer.candidates}
    and {!Mc.Explorer.fire} on an explorer made with clock-activity
    reduction off and ExtraM extrapolation, deduplicating states on
    equality of (locations, variables, monitor state, zone): no
    subsumption, no sharding, no scratch-pool reuse, no budgets but a
    state cap.  It is slow on purpose; its simplicity is the argument
    for its answers. *)

(** [sup net ~trigger ~response ~ceiling] is the supremum of the
    trigger-to-response delay, as [sup: trigger -> response ceiling
    ceiling] asks it of {!Mc.Query.eval}: the delay monitor's clock over
    its [Waiting] states.  [None] when more than [limit] (default
    {!Mc.Explorer.default_limit}) distinct states are reachable. *)
val sup :
  ?limit:int -> Ta.Model.network -> trigger:string -> response:string ->
  ceiling:int -> Mc.Explorer.sup_result option
