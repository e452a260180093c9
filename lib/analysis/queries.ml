type delay_result = {
  dr_trigger : string;
  dr_response : string;
  dr_sup : Mc.Explorer.sup_result;
  dr_stats : Mc.Explorer.stats;
  dr_interrupt : Mc.Runctl.reason option;
  dr_snapshot : Mc.Explorer.snapshot option;
}

let max_delay ?jobs ?limit ?ctl ?resume net ~trigger ~response ~ceiling =
  let t =
    Mc.Query.explorer ?limit net
      (Mc.Query.Sup_delay { trigger; response; ceiling })
  in
  (* snapshots have one format at every [jobs], so a checkpoint taken
     at any [jobs] resumes at any other *)
  let o = Mc.Query.delay_sup ?jobs ?ctl ?resume t in
  { dr_trigger = trigger; dr_response = response;
    dr_sup = o.Mc.Explorer.so_sup;
    dr_stats = o.Mc.Explorer.so_stats;
    dr_interrupt = o.Mc.Explorer.so_interrupt;
    dr_snapshot = o.Mc.Explorer.so_snapshot }

let verdict_of_delay r ~bound =
  Mc.Query.bounded_verdict r.dr_interrupt r.dr_sup bound

let satisfies_response_bound ?jobs ?limit ?ctl net ~trigger ~response ~bound =
  let r = max_delay ?jobs ?limit ?ctl net ~trigger ~response ~ceiling:bound in
  verdict_of_delay r ~bound

(* --- parallel query driver ---------------------------------------------- *)

(* Generic bounded domain pool over a work list.  Items are claimed by
   an atomic next-index counter; the first exception wins, parks in an
   atomic slot, drains the remaining items (workers stop claiming once
   a failure is recorded) and is re-raised on the caller's domain after
   the join. *)
let pool_map ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then List.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        match Atomic.get failure with
        | Some _ -> ()
        | None ->
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            (match f arr.(i) with
             | r -> results.(i) <- Some r
             | exception exn ->
               ignore (Atomic.compare_and_set failure None (Some exn)));
            loop ()
          end
      in
      loop ()
    in
    let doms = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join doms;
    (match Atomic.get failure with Some exn -> raise exn | None -> ());
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  end

type query_spec = {
  qs_name : string;
  qs_net : unit -> Ta.Model.network;
  qs_trigger : string;
  qs_response : string;
  qs_ceiling : int;
}

let spec_query spec =
  Mc.Query.Sup_delay
    { trigger = spec.qs_trigger;
      response = spec.qs_response;
      ceiling = spec.qs_ceiling }

(* A sup query's result, as a delay_result and back.  A finished search
   is [Sup], an interrupted one [Unknown] with the partial sup; any
   other outcome means the entry was produced by a different query kind
   under a colliding key, which we treat as a miss rather than trust. *)
let delay_of_result spec (r : Mc.Query.result) =
  let finish sup interrupt =
    Some
      { dr_trigger = spec.qs_trigger;
        dr_response = spec.qs_response;
        dr_sup = sup;
        dr_stats = r.Mc.Query.res_stats;
        dr_interrupt = interrupt;
        dr_snapshot = None }
  in
  match r.Mc.Query.res_outcome with
  | Mc.Query.Sup sup -> finish sup None
  | Mc.Query.Unknown (reason, partial) ->
    finish (Option.value partial ~default:Mc.Explorer.Sup_unreached)
      (Some reason)
  | Mc.Query.Holds | Mc.Query.Fails _ -> None

let result_of_delay r =
  { Mc.Query.res_outcome =
      (match r.dr_interrupt with
       | None -> Mc.Query.Sup r.dr_sup
       | Some reason -> Mc.Query.Unknown (reason, Some r.dr_sup));
    res_stats = r.dr_stats }

let run_all ?(jobs = 1) ?(search_jobs = 1) ?limit ?ctl ?cache specs =
  pool_map ~jobs
    (fun spec ->
      (* each worker builds its own network from the thunk, so no model
         structure is shared across domains *)
      let net = spec.qs_net () in
      let run () =
        max_delay ~jobs:search_jobs ?limit ?ctl net ~trigger:spec.qs_trigger
          ~response:spec.qs_response ~ceiling:spec.qs_ceiling
      in
      match cache with
      | None -> (spec, run ())
      | Some cache ->
        let q = spec_query spec in
        let key = Qcache.key net q in
        let requested = Qcache.entry_budget ?limit ?ctl () in
        let cached =
          Option.bind (Qcache.find cache ~requested key) (fun e ->
              delay_of_result spec (Qcache.result_of_entry e))
        in
        (match cached with
         | Some r -> (spec, r)
         | None ->
           let t0 = Unix.gettimeofday () in
           let r = run () in
           let wall_ms = 1000. *. (Unix.gettimeofday () -. t0) in
           Qcache.insert cache
             (Qcache.entry_of_result ~key ~query:(Mc.Query.to_string q)
                ~budget:requested ~jobs:search_jobs ~wall_ms
                (result_of_delay r));
           (spec, r)))
    specs

let pp_delay_result ppf r =
  Fmt.pf ppf "max delay %s -> %s: %a (%d states)" r.dr_trigger r.dr_response
    Mc.Explorer.pp_sup_result r.dr_sup r.dr_stats.Mc.Explorer.visited;
  match r.dr_interrupt with
  | Some reason -> Fmt.pf ppf " [interrupted: %a]" Mc.Runctl.pp_reason reason
  | None -> ()
