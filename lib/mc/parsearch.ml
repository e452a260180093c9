(* Domain-parallel zone exploration.

   The first cut of this module sharded the passed/waiting store into
   64 mutex-guarded shards, each carrying its own FIFO: every [take]
   scanned (and locked) up to all 64 shard mutexes, idle workers
   spin-scanned the whole array while [pending > 0], and both
   subsumption directions ran inside the shard lock on every insert.
   On real multicore hosts the lock traffic convoyed the workers doing
   actual DBM work and made [--jobs 2] slower than sequential.

   The current design keeps lock hold times off the hot path entirely:

   - {b Per-worker deques.}  Work lives in one growable ring deque per
     worker, guarded by its own mutex.  The owner pushes and pops at
     the back (LIFO — with ordered search this pops the highest-score
     successor of the latest batch first); an idle worker steals a
     batch (up to half the victim's deque, capped) from the front.  A
     worker touches exactly one lock per pop instead of up to 64.

   - {b Batched shard transfers.}  Successors park in a worker-local
     per-shard buffer and are delivered in batches (threshold
     {!batch_size}, plus a full flush whenever the worker's own deque
     runs dry and at wind-down), so one shard-lock acquisition is
     amortized over a whole batch instead of paid per successor.

   - {b Subsumption outside the lock.}  A shard is a fixed array of
     buckets, each an [Atomic.t] holding an immutable list of nodes;
     each node holds its entry list in an [Atomic.t] too.  Both
     subsumption directions run against an [Atomic.get] snapshot of the
     entry list {e without} the shard lock.  This is sound under the
     OCaml 5 memory model: lists are immutable cons cells published by
     [Atomic.set] (release) and read by [Atomic.get] (acquire), and a
     stored zone is immutable and never returns to a scratch pool, so
     everything reachable from the snapshot is frozen.  A "covered"
     verdict is final even without the lock — stored zones never shrink,
     and a cover of a cover still covers, so later pruning of the
     coverer cannot un-cover us.  A "publish" decision is revalidated
     under the lock by physical equality of the entry list (lists are
     freshly consed on every commit, so pointer equality means
     "unchanged"); only the rare conflicting batch repeats the DBM work
     inside the lock.

   - {b Ordered frontiers.}  An optional [order] scores each successor
     (sup queries score by the monitor clock's supremum); batches are
     pushed in ascending score order so the owner's LIFO pop explores
     max-delay states first, which reaches the final sup sooner and
     lets subsumption prune more of the low-delay frontier.

   - {b Exact state budgets.}  Workers reserve an expansion slot with a
     CAS loop on the shared [visited] counter that never lets it pass
     the effective limit (the explorer's own cap or the token's
     [b_states], whichever binds) — not even transiently, so partial
     stats cannot report [visited > budget] no matter how many workers
     race into the limit.

   - {b Coherent checkpoints.}  On a budget/cancel interrupt the fleet
     finishes its in-flight expansions and flushes its buffers, so the
     store plus the deque contents form a consistent cut of the search;
     the cut serializes through the sequential PSVSNAP2 format
     ({!Explorer.make_snapshot}) and resumes at any [--jobs].

   Termination is still a quiescence count: [pending] tracks buffered
   successors, queued entries and in-flight expansions (a successor
   takes its token when buffered, hands it to the deque entry when
   published, releases it when covered, popped dead, or expanded), so
   [pending = 0] observed by an idle worker means no work exists
   anywhere and none can appear.

   Dead marks ([p_dead]) are written under the shard lock but read
   without it by pops; a stale read just re-expands a subsumed entry,
   which is redundant (its successors are covered once the coverer's
   are published) but never unsound — all explored states remain
   reachable, so verdicts and sups are unaffected.

   Determinism: verdicts and sup values match the sequential explorer
   because both run the same zone-graph closure to a fixpoint — every
   reachable zone ends up included in some stored zone that is itself
   reachable, so predicates over discrete states and suprema of clocks
   agree no matter the exploration order.  Visited/stored counts,
   witness choice and interrupted partial results are order-dependent
   and may differ. *)

open Ta

let num_shards = 64
let shard_shift = 6 (* log2 num_shards; bucket index uses the next bits *)
let shard_buckets = 512
let batch_size = 32

let recommended_jobs () = Domain.recommended_domain_count ()

(* A stored symbolic state.  The parent link doubles as the trace side
   table: witness chains are rebuilt by walking [p_parent], so no
   global id-indexed array (and no lock around it) is needed.
   [p_dead] is written under the owning shard's mutex (and read racily,
   see above). *)
type entry = {
  p_id : int;
  p_state : Explorer.state;
  p_sum : int;  (* Dbm.weight of the zone, prefilters subsumption probes *)
  p_parent : entry option;
  p_movers : (int * Compiled.cedge) list;
  p_score : int;
  mutable p_dead : bool;
}

type node = {
  n_hash : int;
  n_locs : int array;
  n_vars : int array;
  n_mon : int;
  n_entries : entry list Atomic.t;
}

type shard = {
  s_lock : Mutex.t;
  s_buckets : node list Atomic.t array;
}

(* Why a search (or a worker) is winding down.  [Running] is an
   immediate constructor, so first-one-wins transitions use
   [compare_and_set stop Running _]. *)
type stop_state =
  | Running
  | Found of entry
  | Interrupted of Runctl.reason
  | Crashed of exn * string  (* exception + backtrace of the first crash *)

let chain_of entry =
  let rec walk acc e =
    match e.p_parent with
    | None -> acc
    | Some p -> walk (e.p_movers :: acc) p
  in
  walk [] entry

(* Critical sections never block and never call user code, but an
   exception leaking out of one (a library bug) must not leave the
   mutex held: the other workers would wedge in [Mutex.lock] where they
   cannot observe the stop cell. *)
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception exn ->
    Mutex.unlock m;
    raise exn

(* --- per-worker deque --------------------------------------------------- *)

(* A growable ring guarded by its own mutex.  [d_size] mirrors the
   length so idle workers can scan for a victim without touching any
   lock.  Slots are not cleared on pop: every entry is also reachable
   from the store (or from a live descendant's parent chain), so the
   stale references retain nothing extra. *)
type deque = {
  d_lock : Mutex.t;
  mutable d_buf : entry array;
  mutable d_head : int;
  mutable d_len : int;
  d_size : int Atomic.t;
}

let deque_make () =
  { d_lock = Mutex.create ();
    d_buf = [||];
    d_head = 0;
    d_len = 0;
    d_size = Atomic.make 0 }

(* Ring helpers; callers hold [d_lock] and refresh [d_size] once per
   critical section. *)
let deque_reserve d extra filler =
  let cap = Array.length d.d_buf in
  if d.d_len + extra > cap then begin
    let ncap = ref (max 64 cap) in
    while !ncap < d.d_len + extra do
      ncap := 2 * !ncap
    done;
    let nb = Array.make !ncap filler in
    for i = 0 to d.d_len - 1 do
      nb.(i) <- d.d_buf.((d.d_head + i) mod cap)
    done;
    d.d_buf <- nb;
    d.d_head <- 0
  end

let deque_push_back d e =
  deque_reserve d 1 e;
  d.d_buf.((d.d_head + d.d_len) mod Array.length d.d_buf) <- e;
  d.d_len <- d.d_len + 1

let deque_pop_back d =
  if d.d_len = 0 then None
  else begin
    d.d_len <- d.d_len - 1;
    Some d.d_buf.((d.d_head + d.d_len) mod Array.length d.d_buf)
  end

let deque_pop_front d =
  if d.d_len = 0 then None
  else begin
    let e = d.d_buf.(d.d_head) in
    d.d_head <- (d.d_head + 1) mod Array.length d.d_buf;
    d.d_len <- d.d_len - 1;
    Some e
  end

(* A successor parked in its producing worker's per-shard buffer,
   waiting for the batched transfer into the store. *)
type succ = {
  c_hash : int;
  c_parent : entry option;
  c_movers : (int * Compiled.cedge) list;
  c_state : Explorer.state;
  c_score : int;
}

type wstate = {
  w_index : int;
  w_pool : Zone.Dbm.Pool.t;
  w_deque : deque;
  w_buf : succ list array; (* per destination shard, newest first *)
  w_nbuf : int array;
  mutable w_buffered : int; (* total across shards *)
  mutable w_tick : int;     (* expansions, for striped runctl sampling *)
}

(* [visit] is called by the inserting worker with its worker index, so
   callers can fold into per-worker accumulators without locks.
   [order] scores successors for max-first frontier ordering;
   [snapshot_label]/[payload] enable PSVSNAP2 checkpoints on interrupt,
   and [resume] seeds the store from one (its label must match). *)
let run_parallel ~jobs ?ctl ?order ?resume ?snapshot_label
    ?(payload = fun () -> "") t visit =
  let jobs = max 1 jobs in
  let dim = (Explorer.compiled t).Compiled.c_nclocks + 1 in
  let shards =
    Array.init num_shards (fun _ ->
        { s_lock = Mutex.create ();
          s_buckets = Array.init shard_buckets (fun _ -> Atomic.make []) })
  in
  let wstates =
    Array.init jobs (fun w ->
        { w_index = w;
          w_pool = Explorer.fresh_pool t;
          w_deque = deque_make ();
          w_buf = Array.make num_shards [];
          w_nbuf = Array.make num_shards 0;
          w_buffered = 0;
          w_tick = 0 })
  in
  let next_id = Atomic.make 0 in
  let pending = Atomic.make 0 in
  let visited = Atomic.make 0 in
  let stored = Atomic.make 0 in
  let stop = Atomic.make Running in
  (* the state budget is enforced by reservation (a CAS loop on
     [visited]), not detection: the counter can never pass
     [hard_limit], even transiently, so partial stats never report
     more visited states than the budget allows *)
  let hard_limit =
    let limit = Explorer.state_limit t in
    match ctl with
    | Some c ->
      (match (Runctl.budget c).Runctl.b_states with
       | Some n -> min n limit
       | None -> limit)
    | None -> limit
  in
  let score_of = match order with None -> fun _ -> 0 | Some f -> f in
  let ordered = order <> None in
  let running () = match Atomic.get stop with Running -> true | _ -> false in
  (* on a budget/cancel interrupt the fleet finishes in-flight
     expansions and flushes, so store + deques stay a coherent cut of
     the search (snapshot-ready); [Found]/[Crashed] abandon at once *)
  let winding_down_ok () =
    match Atomic.get stop with
    | Running | Interrupted _ -> true
    | Found _ | Crashed _ -> false
  in
  let interrupt r =
    ignore (Atomic.compare_and_set stop Running (Interrupted r))
  in
  let found e = ignore (Atomic.compare_and_set stop Running (Found e)) in
  let crashed exn bt =
    ignore (Atomic.compare_and_set stop Running (Crashed (exn, bt)))
  in
  let find_node nodes h (st : Explorer.state) =
    let rec go = function
      | [] -> None
      | n :: rest ->
        if n.n_hash = h && n.n_mon = st.Explorer.st_mon
           && n.n_locs = st.Explorer.st_locs
           && n.n_vars = st.Explorer.st_vars
        then Some n
        else go rest
    in
    go nodes
  in
  (* both subsumption scans prefilter on the scalar zone weight (a
     dominance measure, see {!Zone.Dbm.weight}): an entry can cover the
     newcomer only when at least as heavy, and be covered only when no
     heavier, so most probes skip the O(dim^2) inclusion walk *)
  let covered_by entries (st : Explorer.state) =
    let w = Zone.Dbm.weight st.Explorer.st_zone in
    List.exists
      (fun e ->
        e.p_sum >= w
        && Zone.Dbm.includes e.p_state.Explorer.st_zone st.Explorer.st_zone)
      entries
  in
  (* survivors vs. entries the newcomer covers *)
  let split_killed entries (st : Explorer.state) =
    let w = Zone.Dbm.weight st.Explorer.st_zone in
    List.partition
      (fun e ->
        e.p_sum > w
        || not
             (Zone.Dbm.includes st.Explorer.st_zone e.p_state.Explorer.st_zone))
      entries
  in
  let fresh_entry it =
    { p_id = Atomic.fetch_and_add next_id 1;
      p_state = it.c_state;
      p_sum = Zone.Dbm.weight it.c_state.Explorer.st_zone;
      p_parent = it.c_parent;
      p_movers = it.c_movers;
      p_score = it.c_score;
      p_dead = false }
  in
  (* drop a covered successor: scratch zone back to the producing
     worker's pool, quiescence token released *)
  let drop ws it =
    Zone.Dbm.Pool.release ws.w_pool it.c_state.Explorer.st_zone;
    Atomic.decr pending
  in
  (* slow path, caller holds the shard lock: full insert against the
     current entry list *)
  let insert_locked ws it n =
    let cur = Atomic.get n.n_entries in
    if covered_by cur it.c_state then begin
      drop ws it;
      None
    end
    else begin
      let keep, killed = split_killed cur it.c_state in
      List.iter (fun e -> e.p_dead <- true) killed;
      let e = fresh_entry it in
      Atomic.set n.n_entries (e :: keep);
      Atomic.incr stored;
      Some e
    end
  in
  (* Deliver worker [ws]'s buffered successors for shard [si]: one
     optimistic pass without the lock, then one lock acquisition for
     the whole batch.  Published entries go to the worker's own deque
     (ascending score, so LIFO pops max first) and through [visit]. *)
  let flush_shard ws si =
    let items = ws.w_buf.(si) in
    ws.w_buf.(si) <- [];
    ws.w_buffered <- ws.w_buffered - ws.w_nbuf.(si);
    ws.w_nbuf.(si) <- 0;
    let sh = shards.(si) in
    (* phase 1 — no lock: resolve each successor's node and run both
       subsumption directions against the published snapshot *)
    let prep =
      List.rev_map
        (fun it ->
          let bi = (it.c_hash lsr shard_shift) land (shard_buckets - 1) in
          match
            find_node (Atomic.get sh.s_buckets.(bi)) it.c_hash it.c_state
          with
          | None -> (it, bi, None)
          | Some n ->
            let snap = Atomic.get n.n_entries in
            if covered_by snap it.c_state then (it, bi, Some (n, snap, None))
            else
              let keep, killed = split_killed snap it.c_state in
              (it, bi, Some (n, snap, Some (keep, killed))))
        items
    in
    (* phase 2 — commit the batch under one lock acquisition.
       "Covered" is final without re-checking; "publish" revalidates by
       pointer equality of the entry list and falls back to the locked
       slow path only when another worker committed to this node since
       phase 1 *)
    let published =
      with_lock sh.s_lock (fun () ->
          List.fold_left
            (fun acc (it, bi, info) ->
              match info with
              | Some (_, _, None) ->
                drop ws it;
                acc
              | Some (n, snap, Some (keep, killed)) ->
                if Atomic.get n.n_entries == snap then begin
                  List.iter (fun e -> e.p_dead <- true) killed;
                  let e = fresh_entry it in
                  Atomic.set n.n_entries (e :: keep);
                  Atomic.incr stored;
                  e :: acc
                end
                else begin
                  match insert_locked ws it n with
                  | Some e -> e :: acc
                  | None -> acc
                end
              | None -> begin
                  let nodes = Atomic.get sh.s_buckets.(bi) in
                  match find_node nodes it.c_hash it.c_state with
                  | Some n ->
                    (match insert_locked ws it n with
                     | Some e -> e :: acc
                     | None -> acc)
                  | None ->
                    let e = fresh_entry it in
                    let n =
                      { n_hash = it.c_hash;
                        n_locs = it.c_state.Explorer.st_locs;
                        n_vars = it.c_state.Explorer.st_vars;
                        n_mon = it.c_state.Explorer.st_mon;
                        n_entries = Atomic.make [ e ] }
                    in
                    Atomic.set sh.s_buckets.(bi) (n :: nodes);
                    Atomic.incr stored;
                    e :: acc
                end)
            [] prep)
    in
    let pub =
      List.stable_sort
        (fun a b -> compare a.p_score b.p_score)
        (List.rev published)
    in
    (match pub with
     | [] -> ()
     | _ ->
       let dq = ws.w_deque in
       with_lock dq.d_lock (fun () ->
           List.iter (deque_push_back dq) pub;
           Atomic.set dq.d_size dq.d_len));
    List.iter
      (fun e ->
        match visit ws.w_index e.p_state with
        | `Stop -> found e
        | `Continue -> ())
      pub
  in
  let flush_all ws =
    for si = 0 to num_shards - 1 do
      if ws.w_nbuf.(si) > 0 then flush_shard ws si
    done
  in
  let buffer_succ ws parent movers (st : Explorer.state) =
    let h =
      Explorer.hash_discrete st.Explorer.st_locs st.Explorer.st_vars
        st.Explorer.st_mon
    in
    let si = h land (num_shards - 1) in
    let it =
      { c_hash = h;
        c_parent = parent;
        c_movers = movers;
        c_state = st;
        c_score = score_of st }
    in
    (* the quiescence token is taken when a successor is buffered, not
       when it is published: [pending] over-approximates outstanding
       work, so it cannot hit zero while any worker still holds
       undelivered successors *)
    Atomic.incr pending;
    ws.w_buf.(si) <- it :: ws.w_buf.(si);
    ws.w_nbuf.(si) <- ws.w_nbuf.(si) + 1;
    ws.w_buffered <- ws.w_buffered + 1;
    if ws.w_nbuf.(si) >= batch_size then flush_shard ws si
  in
  let rec reserve_expansion () =
    let v = Atomic.get visited in
    if v >= hard_limit then false
    else if Atomic.compare_and_set visited v (v + 1) then true
    else reserve_expansion ()
  in
  (* [true] when [e] was expanded; [false] when a veto interrupted the
     search first (the caller returns [e] to the frontier) *)
  let expand ws e =
    let veto =
      match ctl with
      | None -> None
      | Some c ->
        let tick = ws.w_tick in
        ws.w_tick <- tick + 1;
        Runctl.check_striped c ~visited:(Atomic.get visited) ~tick
    in
    match veto with
    | Some r ->
      interrupt r;
      false
    | None ->
      if not (reserve_expansion ()) then begin
        interrupt (Runctl.State_budget hard_limit);
        false
      end
      else begin
        List.iter
          (fun cd ->
            if winding_down_ok () then
              match Explorer.fire t ws.w_pool e.p_state cd with
              | None -> ()
              | Some st -> buffer_succ ws (Some e) (Explorer.movers cd) st)
          (Explorer.candidates t e.p_state);
        true
      end
  in
  let pop_own ws =
    let dq = ws.w_deque in
    with_lock dq.d_lock (fun () ->
        let rec go () =
          match (if ordered then deque_pop_back dq else deque_pop_front dq) with
          | None -> None
          | Some e ->
            if e.p_dead then begin
              Atomic.decr pending;
              go ()
            end
            else Some e
        in
        let r = go () in
        Atomic.set dq.d_size dq.d_len;
        r)
  in
  let push_own ws e =
    let dq = ws.w_deque in
    with_lock dq.d_lock (fun () ->
        deque_push_back dq e;
        Atomic.set dq.d_size dq.d_len)
  in
  let steal ws =
    let rec scan i =
      if i >= jobs then None
      else begin
        let vd = wstates.((ws.w_index + i) mod jobs).w_deque in
        if Atomic.get vd.d_size = 0 then scan (i + 1)
        else begin
          let grabbed =
            with_lock vd.d_lock (fun () ->
                (* up to half the victim's deque, front (oldest) first *)
                let want = min batch_size (vd.d_len - (vd.d_len / 2)) in
                let rec front k acc =
                  if k = 0 then acc
                  else
                    match deque_pop_front vd with
                    | None -> acc
                    | Some e ->
                      if e.p_dead then begin
                        Atomic.decr pending;
                        front k acc
                      end
                      else front (k - 1) (e :: acc)
                in
                let l = front want [] in
                Atomic.set vd.d_size vd.d_len;
                List.rev l)
          in
          match grabbed with
          | [] -> scan (i + 1)
          | first :: rest ->
            if rest <> [] then begin
              let dq = ws.w_deque in
              with_lock dq.d_lock (fun () ->
                  List.iter (deque_push_back dq) rest;
                  Atomic.set dq.d_size dq.d_len)
            end;
            Some first
        end
      end
    in
    scan 1
  in
  let rec take ws =
    match pop_own ws with
    | Some e -> Some e
    | None ->
      if ws.w_buffered > 0 then begin
        flush_all ws;
        take ws
      end
      else steal ws
  in
  let worker w =
    let ws = wstates.(w) in
    (* Idle backoff: spin briefly (steals usually succeed within a few
       probes while work exists), then sleep sub-millisecond slices so
       an idle worker stops eating a core the busy ones — or a
       co-scheduled process on an oversubscribed host — need.  The
       [pending = 0] exit check runs before each backoff, so quiescence
       detection is delayed by at most one slice. *)
    let idle = ref 0 in
    let rec loop () =
      if running () then begin
        match take ws with
        | Some e ->
          idle := 0;
          if expand ws e then begin
            Atomic.decr pending;
            loop ()
          end
          else begin
            (* vetoed before expanding: the entry keeps its token and
               returns to the frontier, so an interrupt snapshot still
               carries it *)
            push_own ws e;
            loop ()
          end
        | None ->
          if Atomic.get pending = 0 then ()
          else begin
            incr idle;
            if !idle < 64 then Domain.cpu_relax ()
            else Unix.sleepf (if !idle < 256 then 0.000_05 else 0.000_5);
            loop ()
          end
      end
    in
    (try loop () with exn -> crashed exn (Printexc.get_backtrace ()));
    (* wind-down: deliver still-buffered successors so the store plus
       the deques form a coherent cut (and their tokens resolve);
       harmless after [Found] (a late [found] loses the CAS) *)
    try flush_all ws with exn -> crashed exn (Printexc.get_backtrace ())
  in
  (* seeding runs on the calling domain before any worker spawns, so no
     locks are contended; a crash in the seed visit is supervised like
     any worker crash.  Resume validation, in contrast, raises to the
     caller exactly like the sequential path. *)
  let old_trace =
    match resume with
    | None ->
      (try
         let initial = Explorer.initial_state t in
         if not (Zone.Dbm.is_empty initial.Explorer.st_zone) then begin
           let ws = wstates.(0) in
           buffer_succ ws None [] initial;
           flush_all ws
         end
       with exn -> crashed exn (Printexc.get_backtrace ()));
      [||]
    | Some snap ->
      let label = Option.value snapshot_label ~default:"" in
      Explorer.check_snapshot t ~label ~subsume:true snap;
      Atomic.set next_id (Explorer.snapshot_next_id snap);
      Atomic.set visited (Explorer.snapshot_visited snap);
      Atomic.set stored (Explorer.snapshot_stored snap);
      let by_id = Hashtbl.create 4096 in
      List.iter
        (fun (se : Explorer.snap_entry) ->
          let st =
            { Explorer.st_locs = se.Explorer.se_locs;
              st_vars = se.Explorer.se_vars;
              st_mon = se.Explorer.se_mon;
              st_zone = Zone.Dbm.of_ints ~dim se.Explorer.se_zone }
          in
          let e =
            { p_id = se.Explorer.se_id;
              p_state = st;
              p_sum = Zone.Dbm.weight st.Explorer.st_zone;
              p_parent = None;
              p_movers = [];
              p_score = score_of st;
              p_dead = false }
          in
          Hashtbl.replace by_id e.p_id e;
          let h =
            Explorer.hash_discrete st.Explorer.st_locs st.Explorer.st_vars
              st.Explorer.st_mon
          in
          let sh = shards.(h land (num_shards - 1)) in
          let bi = (h lsr shard_shift) land (shard_buckets - 1) in
          let nodes = Atomic.get sh.s_buckets.(bi) in
          match find_node nodes h st with
          | Some n -> Atomic.set n.n_entries (e :: Atomic.get n.n_entries)
          | None ->
            let n =
              { n_hash = h;
                n_locs = st.Explorer.st_locs;
                n_vars = st.Explorer.st_vars;
                n_mon = st.Explorer.st_mon;
                n_entries = Atomic.make [ e ] }
            in
            Atomic.set sh.s_buckets.(bi) (n :: nodes))
        (Explorer.snapshot_entries snap);
      (* the restored frontier spreads round-robin over the workers;
         the visit callback is NOT replayed for restored states (the
         caller's accumulator comes back through the payload, as in
         the sequential resume) *)
      Array.iteri
        (fun i id ->
          let e = Hashtbl.find by_id id in
          Atomic.incr pending;
          let dq = wstates.(i mod jobs).w_deque in
          deque_push_back dq e;
          Atomic.set dq.d_size dq.d_len)
        (Explorer.snapshot_queue snap);
      Explorer.snapshot_trace snap
  in
  let domains =
    Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join domains;
  (* everything below runs after the join, which orders all worker
     writes before these reads *)
  let frontier_entries =
    Array.fold_left
      (fun acc ws ->
        let dq = ws.w_deque in
        let rec go i acc =
          if i >= dq.d_len then acc
          else
            let e = dq.d_buf.((dq.d_head + i) mod Array.length dq.d_buf) in
            go (i + 1) (if e.p_dead then acc else e :: acc)
        in
        go 0 acc)
      [] wstates
  in
  let stats =
    { Explorer.visited = Atomic.get visited;
      stored = Atomic.get stored;
      frontier = List.length frontier_entries }
  in
  let build_snapshot label =
    let live = ref [] in
    Array.iter
      (fun sh ->
        Array.iter
          (fun bucket ->
            List.iter
              (fun n ->
                List.iter
                  (fun e -> if not e.p_dead then live := e :: !live)
                  (Atomic.get n.n_entries))
              (Atomic.get bucket))
          sh.s_buckets)
      shards;
    let nid = Atomic.get next_id in
    let trace = Array.make nid (-1, []) in
    let filled = Array.make nid false in
    (* rows restored from the resumed-from snapshot survive verbatim *)
    Array.iteri
      (fun id row ->
        trace.(id) <- row;
        filled.(id) <- true)
      old_trace;
    let movers_ix movers =
      List.map (fun (ai, ce) -> (ai, ce.Compiled.ce_index)) movers
    in
    (* walk parent chains so interior (pruned) ancestors of live
       entries get their rows too; tail-recursive, stops at the first
       already-filled ancestor *)
    let rec fill e =
      if not filled.(e.p_id) then begin
        filled.(e.p_id) <- true;
        match e.p_parent with
        | None -> () (* root or restored: row stays/was set already *)
        | Some p ->
          trace.(e.p_id) <- (p.p_id, movers_ix e.p_movers);
          fill p
      end
    in
    List.iter fill !live;
    (* entries and queue sorted by id: the serialized cut is then a
       deterministic function of the final store, not of the worker
       interleaving that produced it *)
    let entries =
      !live
      |> List.map (fun e ->
             { Explorer.se_id = e.p_id;
               se_locs = e.p_state.Explorer.st_locs;
               se_vars = e.p_state.Explorer.st_vars;
               se_mon = e.p_state.Explorer.st_mon;
               se_zone = Zone.Dbm.to_ints e.p_state.Explorer.st_zone })
      |> List.sort (fun a b -> compare a.Explorer.se_id b.Explorer.se_id)
    in
    let queue =
      frontier_entries
      |> List.map (fun e -> e.p_id)
      |> List.sort compare |> Array.of_list
    in
    Explorer.make_snapshot t ~label ~subsume:true ~next_id:nid
      ~visited:stats.Explorer.visited ~stored:stats.Explorer.stored ~entries
      ~queue ~trace ~payload:(payload ())
  in
  match Atomic.get stop with
  | Crashed (exn, bt) ->
    (* Supervision: the crashed worker is already isolated (its domain
       has exited; the others observed [stop] and wound down).  The
       search is downgraded to a diagnosed Unknown instead of killing
       the calling process — the diagnosis carries the backtrace when
       the runtime recorded one. *)
    let diag =
      let b = String.trim bt in
      if b = "" then Printexc.to_string exn
      else Printexc.to_string exn ^ "\n" ^ b
    in
    { Explorer.sr_chain = None;
      sr_stats = stats;
      sr_interrupt = Some (Runctl.Crash diag);
      sr_snapshot = None }
  | Found e ->
    { sr_chain = Some (chain_of e);
      sr_stats = stats;
      sr_interrupt = None;
      sr_snapshot = None }
  | Interrupted r ->
    { sr_chain = None;
      sr_stats = stats;
      sr_interrupt = Some r;
      sr_snapshot = Option.map build_snapshot snapshot_label }
  | Running ->
    { sr_chain = None;
      sr_stats = stats;
      sr_interrupt = None;
      sr_snapshot = None }

(* --- queries ----------------------------------------------------------- *)

(* [expand] is a hook of the sequential search loop; the sharded store
   has no equivalent, so it is refused rather than silently ignored. *)
let check_sequential ~jobs expand =
  if jobs > 1 && Option.is_some expand then
    invalid_arg "Parsearch: an expand hook runs on the sequential path only"

let find_chain ~jobs ?expand ?ctl t pred =
  check_sequential ~jobs expand;
  let visit st = if pred st then `Stop else `Continue in
  if jobs <= 1 then Explorer.search ?expand ?ctl ~label:"reachable" t visit
  else run_parallel ~jobs ?ctl t (fun _ st -> visit st)

let reachable ?(jobs = 1) ?expand ?ctl t pred =
  let r = find_chain ~jobs ?expand ?ctl t pred in
  { Explorer.r_trace = Option.map (Explorer.describe_chain t) r.Explorer.sr_chain;
    r_stats = r.Explorer.sr_stats;
    r_interrupt = r.Explorer.sr_interrupt }

(* Per-worker running sups, merged at the end through the same fold as
   a single search ({!Explorer.fold_sup}): [Sup_exceeds] dominates; at
   equal values the non-strict bound wins. *)
let merge_sup ~ceiling acc = function
  | Explorer.Sup_unreached -> acc
  | Explorer.Sup (v, strict) ->
    Explorer.fold_sup ~ceiling acc
      (if strict then Zone.Bound.lt v else Zone.Bound.le v)
  | Explorer.Sup_exceeds _ -> Explorer.fold_sup ~ceiling acc Zone.Bound.infinity

let sup_clock ?(jobs = 1) ?expand ?ctl ?resume t ~pred ~clock =
  check_sequential ~jobs expand;
  if jobs <= 1 then Explorer.sup_clock ?expand ?ctl ?resume t ~pred ~clock
  else begin
    let ci, ceiling = Explorer.monitor_clock_info t clock in
    let label = "sup:" ^ clock in
    (* validate before unmarshalling the payload: a mismatched snapshot
       must raise, not feed foreign bytes to [Marshal.from_string] *)
    (match resume with
     | Some snap -> Explorer.check_snapshot t ~label ~subsume:true snap
     | None -> ());
    let bests =
      Array.init jobs (fun i ->
          ref
            (match resume with
             | Some snap
               when i = 0 && Explorer.snapshot_payload snap <> "" ->
               (Marshal.from_string (Explorer.snapshot_payload snap) 0
                 : Explorer.sup_result)
             | Some _ | None -> Explorer.Sup_unreached))
    in
    let visit w (st : Explorer.state) =
      if pred st then begin
        let best = bests.(w) in
        best :=
          Explorer.fold_sup ~ceiling !best
            (Zone.Dbm.sup_clock st.Explorer.st_zone ci)
      end;
      `Continue
    in
    let merged () =
      Array.fold_left
        (fun acc best -> merge_sup ~ceiling acc !best)
        Explorer.Sup_unreached bests
    in
    (* max-delay-first: explore high monitor-clock suprema before low
       ones, so the running sup peaks early and the low-delay frontier
       gets pruned by subsumption instead of expanded *)
    let order (st : Explorer.state) =
      let b = Zone.Dbm.sup_clock st.Explorer.st_zone ci in
      if Zone.Bound.is_infinite b then max_int else Zone.Bound.constant b
    in
    let payload () = Marshal.to_string (merged ()) [] in
    let r =
      run_parallel ~jobs ?ctl ~order ?resume ~snapshot_label:label ~payload t
        visit
    in
    { Explorer.so_sup = merged ();
      so_stats = r.Explorer.sr_stats;
      so_interrupt = r.Explorer.sr_interrupt;
      so_snapshot = r.Explorer.sr_snapshot }
  end

let timed_witness ?(jobs = 1) ?ctl t pred =
  let r = find_chain ~jobs ?ctl t pred in
  Option.bind r.Explorer.sr_chain (Explorer.replay t)
