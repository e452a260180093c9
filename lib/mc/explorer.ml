open Ta

type t = {
  comp : Compiled.t;
  monitor : Monitor.t;
  mon_clock_index : (string * int) list;  (* monitor clock name -> DBM index *)
  mon_ceiling : (string * int) list;
  k : int array;  (* ExtraM constants, per DBM clock index *)
  lconsts : int array;  (* ExtraLU lower constants *)
  uconsts : int array;  (* ExtraLU upper constants *)
  use_lu : bool;
  limit : int;
  reduce : bool;
  (* per automaton, per location: tau edges, and send/receive edges
     indexed by channel -- precomputed so candidate enumeration is a
     table lookup *)
  taus : Compiled.cedge array array array;
  sends : Compiled.cedge array array array array;
  recvs : Compiled.cedge array array array array;
  (* per monitor state: DBM indices of the monitor clocks inactive there
     (freed after every fire) -- precomputed so the hot path neither
     calls [mon_active] nor searches association lists *)
  mon_free : int list array;
  (* per channel, per monitor state: the monitor step on that channel,
     with reset clocks already resolved to DBM indices *)
  mon_step : (int * int list) option array array;
}

type state = {
  st_locs : int array;
  st_vars : int array;
  st_mon : int;
  st_zone : Zone.Dbm.t;
}

type stats = {
  visited : int;
  stored : int;
  frontier : int;
}

type verdict =
  | Proved
  | Refuted of string list option
  | Unknown of Runctl.reason

let pp_verdict ppf = function
  | Proved -> Fmt.string ppf "proved"
  | Refuted None -> Fmt.string ppf "REFUTED"
  | Refuted (Some trace) ->
    Fmt.pf ppf "REFUTED (counterexample of %d steps)" (List.length trace)
  | Unknown reason -> Fmt.pf ppf "unknown: %a" Runctl.pp_reason reason

let default_limit = 2_000_000

let make ?(monitor = Monitor.trivial) ?tight ?(limit = default_limit)
    ?(reduce = true) ?(lu = false) net =
  let mon_clocks = List.map fst monitor.Monitor.mon_clocks in
  let comp =
    Compiled.compile ~extra_clocks:mon_clocks
      ~clock_ceilings:monitor.Monitor.mon_clocks net
  in
  let tight = match tight with Some b -> b | None -> false in
  let k = Array.copy comp.Compiled.c_max_consts in
  let lconsts = Array.copy comp.Compiled.c_lower_consts in
  let uconsts = Array.copy comp.Compiled.c_upper_consts in
  if tight then begin
    let hi = Array.fold_left max 0 k in
    for i = 1 to Array.length k - 1 do
      k.(i) <- hi;
      lconsts.(i) <- hi;
      uconsts.(i) <- hi
    done
  end;
  let mon_clock_index =
    List.map (fun c -> (c, Compiled.clock_index comp c)) mon_clocks
  in
  let nchans = Array.length comp.Compiled.c_chan_names in
  let table select =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            let by_chan = Array.make nchans [] in
            (* cons-accumulate (edges are in declaration order, so reverse
               once per channel), then freeze as arrays *)
            List.iter
              (fun ce ->
                match select ce.Compiled.ce_sync with
                | Some ch -> by_chan.(ch) <- ce :: by_chan.(ch)
                | None -> ())
              edges;
            Array.map (fun l -> Array.of_list (List.rev l)) by_chan)
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  let taus =
    Array.map
      (fun a ->
        Array.map
          (fun edges ->
            Array.of_list
              (List.filter
                 (fun ce -> ce.Compiled.ce_sync = Compiled.CTau)
                 edges))
          a.Compiled.ca_out)
      comp.Compiled.c_automata
  in
  let sends =
    table (function Compiled.CSend ch -> Some ch | _ -> None)
  in
  let recvs =
    table (function Compiled.CRecv ch -> Some ch | _ -> None)
  in
  let nmonstates = Array.length monitor.Monitor.mon_states in
  let mon_free =
    Array.init nmonstates (fun s ->
        let active = monitor.Monitor.mon_active s in
        List.filter_map
          (fun (name, i) ->
            if List.mem name active then None else Some i)
          mon_clock_index)
  in
  let mon_step =
    Array.init nchans (fun ch ->
        let chan = comp.Compiled.c_chan_names.(ch) in
        Array.init nmonstates (fun s ->
            match Monitor.step monitor s chan with
            | Some (dst, resets) ->
              Some
                (dst,
                 List.map (fun c -> List.assoc c mon_clock_index) resets)
            | None -> None))
  in
  { comp;
    monitor;
    mon_clock_index;
    mon_ceiling = monitor.Monitor.mon_clocks;
    k;
    lconsts;
    uconsts;
    use_lu = lu;
    limit;
    reduce;
    taus;
    sends;
    recvs;
    mon_free;
    mon_step }

let compiled t = t.comp

let fresh_pool t = Zone.Dbm.Pool.create (t.comp.Compiled.c_nclocks + 1)

(* DBM index and exact-reporting ceiling of a (typically monitor) clock,
   as used by sup queries. *)
let monitor_clock_info t clock =
  let ci =
    match List.assoc_opt clock t.mon_clock_index with
    | Some i -> i
    | None -> Compiled.clock_index t.comp clock
  in
  let ceiling =
    match List.assoc_opt clock t.mon_ceiling with
    | Some c -> c
    | None -> t.k.(ci)
  in
  (ci, ceiling)

let at t ~aut ~loc =
  let ai, li = Compiled.loc_index t.comp ~aut loc in
  fun st -> st.st_locs.(ai) = li

let var_value t name =
  let vi = Compiled.var_index t.comp name in
  fun st -> st.st_vars.(vi)

let mon_in t name =
  let si = Monitor.state_index t.monitor name in
  fun st -> st.st_mon = si

(* --- zone plumbing --------------------------------------------------- *)

let bound_of_dc (dc : Compiled.dconstraint) =
  if dc.Compiled.dc_strict then Zone.Bound.lt dc.Compiled.dc_bound
  else Zone.Bound.le dc.Compiled.dc_bound

let apply_dconstraints z dcs =
  List.iter
    (fun (dc : Compiled.dconstraint) ->
      Zone.Dbm.constrain z dc.Compiled.dc_i dc.Compiled.dc_j (bound_of_dc dc))
    dcs

let apply_invariants comp locs z =
  Array.iteri
    (fun ai li ->
      apply_dconstraints z comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_inv)
    locs

let loc_kind comp ai li =
  comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_kind

let committed_present comp locs =
  let n = Array.length locs in
  let rec loop ai =
    ai < n
    && (loc_kind comp ai locs.(ai) = Model.Committed || loop (ai + 1))
  in
  loop 0

let no_delay_present comp locs =
  let n = Array.length locs in
  let rec loop ai =
    ai < n
    && ((match loc_kind comp ai locs.(ai) with
         | Model.Urgent | Model.Committed -> true
         | Model.Normal -> false)
        || loop (ai + 1))
  in
  loop 0

(* Location invariants, then delay closure (unless an urgent or
   committed location pins time) and the invariants again. *)
let delay_close comp locs z =
  apply_invariants comp locs z;
  if not (no_delay_present comp locs) then begin
    Zone.Dbm.up z;
    apply_invariants comp locs z
  end

(* Clocks the monitor declares inactive carry no information; freeing them
   merges zones that differ only in their value. *)
let free_inactive_monitor_clocks t mon_state z =
  List.iter (Zone.Dbm.free z) t.mon_free.(mon_state)

(* Activity reduction: free the clocks that are dead at an automaton's
   current location (see Compiled.cl_free). *)
let free_inactive_automaton_clocks t ai li z =
  if t.reduce then
    List.iter (Zone.Dbm.free z)
      t.comp.Compiled.c_automata.(ai).Compiled.ca_locs.(li).Compiled.cl_free

(* --- transition firing ------------------------------------------------ *)

(* A candidate discrete transition: the moving edges in update order
   (sender first), plus the synchronising channel (by index) if any. *)
type candidate = {
  cd_movers : (int * Compiled.cedge) list;
  cd_chan : int option;
}

let describe t cd =
  let heads =
    List.map (fun (_, ce) -> Compiled.describe_edge t.comp ce) cd.cd_movers
  in
  String.concat " | " heads

let movers cd = cd.cd_movers

let candidate ~movers ~chan = { cd_movers = movers; cd_chan = chan }

let candidate_chan cd = cd.cd_chan

(* The extrapolation this explorer applies to every stored zone. *)
let extrapolate t z =
  if t.use_lu then Zone.Dbm.extrapolate_lu z t.lconsts t.uconsts
  else Zone.Dbm.extrapolate z t.k

(* The firing pipeline shared by [fire] and [fire_pre]: guards,
   location/variable updates, monitor step, resets, activity reduction,
   target invariants and delay closure, everything up to (not including)
   extrapolation.  The successor zone is taken from [pool]; candidates
   whose guard (or target invariant) empties the zone return their
   scratch matrix to the pool and yield [dead] -- in a typical
   exploration most candidates die here, so this removes the dominant
   allocation.  A live successor is handed to [live] (a closed function,
   so passing it allocates nothing). *)
let fire_with t pool st cd ~dead ~live =
  let z = Zone.Dbm.Pool.copy pool st.st_zone in
  List.iter (fun (_, ce) -> apply_dconstraints z ce.Compiled.ce_guard)
    cd.cd_movers;
  if Zone.Dbm.is_empty z then begin
    Zone.Dbm.Pool.release pool z;
    dead
  end
  else begin
    let locs' = Array.copy st.st_locs in
    List.iter (fun (ai, ce) -> locs'.(ai) <- ce.Compiled.ce_dst) cd.cd_movers;
    let vars' =
      (* [apply_updates] copies the valuation; share the parent's array
         for the common case of update-free movers *)
      List.fold_left
        (fun vals (_, ce) ->
          if ce.Compiled.ce_updates = [] then vals
          else Compiled.apply_updates t.comp vals ce.Compiled.ce_updates)
        st.st_vars cd.cd_movers
    in
    let mon', mon_resets =
      match cd.cd_chan with
      | None -> (st.st_mon, [])
      | Some ch ->
        (match t.mon_step.(ch).(st.st_mon) with
         | Some (dst, resets) -> (dst, resets)
         | None -> (st.st_mon, []))
    in
    List.iter
      (fun (_, ce) -> List.iter (Zone.Dbm.reset z) ce.Compiled.ce_resets)
      cd.cd_movers;
    List.iter (Zone.Dbm.reset z) mon_resets;
    free_inactive_monitor_clocks t mon' z;
    List.iter
      (fun (ai, ce) ->
        free_inactive_automaton_clocks t ai ce.Compiled.ce_dst z)
      cd.cd_movers;
    apply_invariants t.comp locs' z;
    if Zone.Dbm.is_empty z then begin
      Zone.Dbm.Pool.release pool z;
      dead
    end
    else begin
      if not (no_delay_present t.comp locs') then begin
        Zone.Dbm.up z;
        apply_invariants t.comp locs' z
      end;
      live t pool locs' vars' mon' z
    end
  end

(* Finish a successor: extrapolate in place; an emptied zone goes back
   to the pool. *)
let finish_state t pool locs vars mon z =
  extrapolate t z;
  if Zone.Dbm.is_empty z then begin
    Zone.Dbm.Pool.release pool z;
    None
  end
  else Some { st_locs = locs; st_vars = vars; st_mon = mon; st_zone = z }

let fire t pool st cd = fire_with t pool st cd ~dead:None ~live:finish_state

(* [fire_pre] is [fire] with the successor zone additionally exposed as it
   stood just {e before} extrapolation.  Everything up to that point
   depends only on the model structure, never on the extrapolation
   constants, so a recorded pre-extrapolation zone stays valid across
   edits that merely move a maximal constant; the delta explorer
   re-applies the {e current} extrapolation at replay time.  Emptiness
   is decided before extrapolation (widening cannot empty a non-empty
   canonical zone), so [Fired_dead] is extrapolation-independent too. *)
type fired =
  | Fired_dead
  | Fired_live of {
      fl_state : state option;
      fl_locs : int array;
      fl_vars : int array;
      fl_mon : int;
      fl_pre : int array;
    }

let finish_fired t pool locs vars mon z =
  let fl_pre = Zone.Dbm.to_ints z in
  Fired_live
    { fl_state = finish_state t pool locs vars mon z;
      fl_locs = locs; fl_vars = vars; fl_mon = mon; fl_pre }

let fire_pre t pool st cd =
  fire_with t pool st cd ~dead:Fired_dead ~live:finish_fired

(* Replay counterpart of [fire_pre]: rebuild a recorded successor from its
   pre-extrapolation zone and finish with {e this} explorer's
   extrapolation, so the state comes out exactly as [fire] on the current
   model would produce it. *)
let admit_pre t ~locs ~vars ~mon ~pre =
  let dim = t.comp.Compiled.c_nclocks + 1 in
  let z = Zone.Dbm.of_ints ~dim pre in
  extrapolate t z;
  if Zone.Dbm.is_empty z then None
  else Some { st_locs = locs; st_vars = vars; st_mon = mon; st_zone = z }

(* [admit_post] rebuilds a successor from its recorded post-extrapolation
   zone verbatim — no extrapolation, no re-canonicalisation.  Sound only
   when this explorer extrapolates exactly like the recording one
   ({!same_extrapolation}): the recorded encoding then already is what
   [admit_pre] would recompute from the pre zone.  A zero-length [post]
   records a successor that extrapolation emptied. *)
let admit_post t ~locs ~vars ~mon ~post =
  if Array.length post = 0 then None
  else
    let dim = t.comp.Compiled.c_nclocks + 1 in
    Some
      { st_locs = locs; st_vars = vars; st_mon = mon;
        st_zone = Zone.Dbm.of_ints ~dim post }

let same_extrapolation a b =
  a.use_lu = b.use_lu && a.k = b.k && a.lconsts = b.lconsts
  && a.uconsts = b.uconsts

(* --- transition enumeration ------------------------------------------ *)

(* Combos in lexicographic order (leftmost list most significant), built
   by consing onto the suffix combos -- no list appends. *)
let cartesian choice_lists =
  List.fold_right
    (fun choices acc ->
      List.concat_map (fun c -> List.map (fun rest -> c :: rest) acc) choices)
    choice_lists
    [ [] ]

let candidates t st =
  let comp = t.comp in
  let nauts = Array.length comp.Compiled.c_automata in
  let com = committed_present t.comp st.st_locs in
  let allowed movers =
    (not com)
    || List.exists
         (fun (ai, ce) -> loc_kind t.comp ai ce.Compiled.ce_src = Model.Committed)
         movers
  in
  let acc = ref [] in
  let add movers chan =
    let cd = { cd_movers = movers; cd_chan = chan } in
    if allowed movers then acc := cd :: !acc
  in
  let enabled ce = ce.Compiled.ce_pred st.st_vars in
  (* internal moves *)
  for ai = 0 to nauts - 1 do
    Array.iter
      (fun ce -> if enabled ce then add [ (ai, ce) ] None)
      t.taus.(ai).(st.st_locs.(ai))
  done;
  (* synchronisations, per channel *)
  let nchans = Array.length comp.Compiled.c_chan_kinds in
  for ch = 0 to nchans - 1 do
    let senders = ref [] in
    for ai = nauts - 1 downto 0 do
      Array.iter
        (fun ce -> if enabled ce then senders := (ai, ce) :: !senders)
        t.sends.(ai).(st.st_locs.(ai)).(ch)
    done;
    if !senders <> [] then begin
      match comp.Compiled.c_chan_kinds.(ch) with
      | Model.Binary ->
        let receivers = ref [] in
        for ai = nauts - 1 downto 0 do
          Array.iter
            (fun ce -> if enabled ce then receivers := (ai, ce) :: !receivers)
            t.recvs.(ai).(st.st_locs.(ai)).(ch)
        done;
        List.iter
          (fun (sa, se) ->
            List.iter
              (fun (ra, re) ->
                if sa <> ra then add [ (sa, se); (ra, re) ] (Some ch))
              !receivers)
          !senders
      | Model.Broadcast ->
        let recv_choices sa =
          let per_aut = ref [] in
          for ai = nauts - 1 downto 0 do
            if ai <> sa then begin
              let edges =
                Array.fold_right
                  (fun ce acc -> if enabled ce then (ai, ce) :: acc else acc)
                  t.recvs.(ai).(st.st_locs.(ai)).(ch)
                  []
              in
              if edges <> [] then per_aut := edges :: !per_aut
            end
          done;
          !per_aut
        in
        List.iter
          (fun (sa, se) ->
            let combos = cartesian (recv_choices sa) in
            List.iter
              (fun receivers -> add ((sa, se) :: receivers) (Some ch))
              combos)
          !senders
    end
  done;
  List.rev !acc

let hash_discrete locs vars mon =
  let h = ref (mon + 0x9e3779b9) in
  Array.iter (fun v -> h := (!h lxor v) * 0x01000193) locs;
  Array.iter (fun v -> h := (!h lxor v) * 0x01000193) vars;
  !h land max_int

let initial_state t =
  let comp = t.comp in
  let locs =
    Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata
  in
  let vars = Array.copy comp.Compiled.c_var_init in
  let z = Zone.Dbm.zero (comp.Compiled.c_nclocks + 1) in
  free_inactive_monitor_clocks t t.monitor.Monitor.mon_initial z;
  Array.iteri (fun ai li -> free_inactive_automaton_clocks t ai li z) locs;
  delay_close t.comp locs z;
  extrapolate t z;
  { st_locs = locs; st_vars = vars; st_mon = t.monitor.Monitor.mon_initial;
    st_zone = z }

(* --- snapshots --------------------------------------------------------- *)

(* A stored state flattened for serialization: raw discrete vectors plus
   the zone's encoded bound matrix. *)
type snap_entry = {
  se_id : int;
  se_locs : int array;
  se_vars : int array;
  se_mon : int;
  se_zone : int array;
}

type snapshot = {
  snap_fingerprint : Store.D128.t;
  snap_label : string;  (* which query took it; resume must match *)
  snap_dim : int;
  snap_subsume : bool;
  snap_next_id : int;
  snap_visited : int;
  snap_stored : int;
  snap_entries : snap_entry list;  (* every live passed/waiting state *)
  snap_queue : int array;          (* waiting entry ids, ascending *)
  snap_trace : (int * (int * int) list) array;
      (* per id: parent, movers as (automaton, edge-index) pairs *)
  snap_payload : string;           (* query accumulator, caller-defined *)
}

(* Format version lives in the magic string: bump the digit whenever the
   [snapshot] record layout or the fingerprint scheme changes, so stale
   files are rejected by the magic check instead of a Marshal
   segfault. *)
let snapshot_magic = "PSVSNAP2"

(* Structural digest of everything that shapes the exploration: a
   snapshot resumes correctly only against a byte-equivalent search
   space.  The model contribution is a digest of the source network's
   canonical [Xta.Print] text ({!Store.Key.network_digest}), which —
   unlike the pre-PSVSNAP2 structural walk — covers guards, invariants
   and updates, not just the automaton skeleton.  The monitor step table
   is included, so two delay monitors over different trigger/response
   pairs fingerprint differently even though their automata are
   isomorphic. *)
let fingerprint t =
  let st = Store.D128.builder () in
  let net_d = Store.Key.network_digest t.comp.Compiled.c_model in
  Store.D128.add_int64 st net_d.Store.D128.hi;
  Store.D128.add_int64 st net_d.Store.D128.lo;
  Store.D128.add_int_array st t.k;
  Store.D128.add_int_array st t.lconsts;
  Store.D128.add_int_array st t.uconsts;
  Store.D128.add_bool st t.use_lu;
  Store.D128.add_bool st t.reduce;
  Store.D128.add_int st (Array.length t.monitor.Monitor.mon_states);
  Store.D128.add_int st t.monitor.Monitor.mon_initial;
  Store.D128.add_int st (List.length t.mon_ceiling);
  List.iter
    (fun (c, ceiling) ->
      Store.D128.add_string st c;
      Store.D128.add_int st ceiling)
    t.mon_ceiling;
  Array.iter
    (fun row ->
      Store.D128.add_int st (Array.length row);
      Array.iter
        (function
          | None -> Store.D128.add_int st (-1)
          | Some (dst, resets) ->
            Store.D128.add_int st dst;
            Store.D128.add_int st (List.length resets);
            List.iter (Store.D128.add_int st) resets)
        row)
    t.mon_step;
  Store.D128.value st

let save_snapshot path snap =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc snapshot_magic;
      Marshal.to_channel oc (snap : snapshot) [];
      flush oc)

let load_snapshot path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let magic = really_input_string ic (String.length snapshot_magic) in
        if magic = snapshot_magic then
          Ok (Marshal.from_channel ic : snapshot)
        else if String.length magic >= 7 && String.sub magic 0 7 = "PSVSNAP"
        then
          Error
            (Printf.sprintf
               "snapshot version %s is not readable by this build (wants %s); \
                re-run the query without --resume to regenerate it"
               magic snapshot_magic)
        else Error "not a psv snapshot")
  with
  | Sys_error msg -> Error msg
  | End_of_file -> Error "truncated snapshot"
  | Failure msg -> Error ("corrupt snapshot: " ^ msg)

let snapshot_visited s = s.snap_visited

(* Resume guard: a snapshot replays correctly only into the same search
   space (fingerprint), the same query kind (label), the same dedup mode
   and the same zone dimension. *)
let check_snapshot t ~label ~subsume snap =
  if not (Store.D128.equal snap.snap_fingerprint (fingerprint t)) then
    invalid_arg
      "Explorer: snapshot does not match this model/monitor/configuration";
  if snap.snap_label <> label then
    invalid_arg "Explorer: snapshot was taken by a different kind of query";
  if snap.snap_subsume <> subsume then
    invalid_arg "Explorer: snapshot subsumption mode differs";
  if snap.snap_dim <> t.comp.Compiled.c_nclocks + 1 then
    invalid_arg "Explorer: snapshot zone dimension differs"

(* --- the search engine --------------------------------------------------- *)

(* One passed/waiting loop serves every worker count.  Work lives in one
   ring deque per worker; the passed store is sharded by the discrete
   hash, each shard a growable table of atomic buckets whose nodes hold
   their entry lists in an [Atomic.t].

   At jobs = 1 (one shard, one worker, no domain spawned) the loop is
   the classic sequential search, and its visited/stored counts, witness
   chains and progress lines are fixed by three rules:
   (a) each successor is inserted, through the locked path, and visited
       the moment it is fired — no batching;
   (b) pruning is copy-free: a node's entry list comes back physically
       unchanged when the newcomer covers nothing (the common case);
   (c) pruned zones go back to the worker's scratch pool, except the
       zone being expanded, which its remaining candidates still read.
   The deque pops FIFO, for sup queries too: breadth-first order is what
   the recorded counters, the incremental ladder's session graphs and
   the golden tests pin, and max-delay-first order moves them.

   At jobs > 1:
   - the owner pops at the back of its deque for ordered (sup) searches,
     so batches pushed in ascending score explore max-delay states first
     and reach the final sup sooner; else at the front.  An idle worker
     steals up to half a victim's deque from the front, probing victims
     through a lock-free size mirror;
   - successors park in worker-local per-shard buffers and transfer in
     batches of [batch_size], one shard-lock acquisition per batch.  Both
     subsumption directions first run against an [Atomic.get] snapshot
     of the entry list without the lock: a "covered" verdict is final
     (stored zones never shrink, a cover of a cover still covers), and a
     "publish" decision is revalidated under the lock by physical
     equality of the list, repeating the work only when another worker
     committed to the node meanwhile;
   - pruned zones stay out of the pools, since lock-free readers may
     still hold them, and a dead mark read without the lock may be stale:
     the entry is then re-expanded, which is redundant but sound;
   - termination is a quiescence count: [pending] covers buffered
     successors, queued entries and in-flight expansions, so [pending =
     0] seen by an idle worker means no work exists and none can appear.

   At any jobs the visited counter is reserved by CAS and never passes
   the state budget, even transiently; an interrupt leaves store and
   deques a coherent cut (the fleet finishes its in-flight expansions and
   flushes), serialized as a PSVSNAP2 snapshot that resumes at any jobs;
   and a raising worker is supervised: the first crash stops the search,
   which reports a diagnosed [Crash] instead of killing the caller.

   Verdicts and sups do not depend on [jobs]: every order reaches the
   same zone-graph fixpoint, where each reachable zone is covered by a
   stored zone that is itself reachable.  Counts, witnesses and partial
   results of interrupted runs at jobs > 1 are order-dependent. *)

let num_shards = 64
let shard_shift = 6 (* log2 num_shards: bucket indices use the bits above *)
let batch_size = 32

let recommended_jobs () = Domain.recommended_domain_count ()

(* Progress output: with [PSV_MC_PROGRESS] set (consulted once, not per
   state) a jobs = 1 search prints its counters to stderr every 1000
   visited states. *)
let env_progress = lazy (Sys.getenv_opt "PSV_MC_PROGRESS" <> None)

(* A stored symbolic state.  The parent link is the trace: a witness
   chain is rebuilt by walking [e_parent], so no id-indexed side table
   (and no lock around one) is needed. *)
type entry = {
  e_id : int;
  e_state : state;
  e_key : int;  (* Dbm.weight of the zone when subsuming, Dbm.hash if not *)
  e_parent : entry option;
  e_movers : (int * Compiled.cedge) list;
  e_score : int;
  mutable e_dead : bool;
}

type node = {
  n_hash : int;
  n_locs : int array;
  n_vars : int array;
  n_mon : int;
  n_entries : entry list Atomic.t;
}

(* [s_table] is replaced by one twice its size, under [s_lock], once the
   shard holds twice as many nodes as buckets; a lock-free reader of the
   old table at worst misses a node and takes the locked path. *)
type shard = {
  s_lock : Mutex.t;
  s_table : node list Atomic.t array Atomic.t;
  mutable s_nodes : int;
}

(* A growable ring guarded by its own mutex.  [d_size] mirrors the
   length so idle workers can look for a victim without a lock.  Slots
   are not cleared on pop: every entry is also reachable from the store
   or from a live descendant's parent chain. *)
type deque = {
  d_lock : Mutex.t;
  mutable d_buf : entry array;
  mutable d_head : int;
  mutable d_len : int;
  d_size : int Atomic.t;
}

(* A successor parked in its producer's per-shard buffer (jobs > 1). *)
type succ = {
  c_hash : int;
  c_parent : entry option;
  c_movers : (int * Compiled.cedge) list;
  c_state : state;
  c_key : int;
  c_score : int;
}

(* What the lock-free pass decided about a buffered successor. *)
type probe =
  | Covered
  | Publish of node * entry list * entry list  (* node, list seen, survivors *)
  | Recheck  (* no node yet: decide under the lock *)

type wstate = {
  w_index : int;
  w_pool : Zone.Dbm.Pool.t;
  w_deque : deque;
  w_buf : succ list array;  (* per destination shard, newest first *)
  w_nbuf : int array;
  mutable w_buffered : int;
  mutable w_tick : int;  (* expansion attempts, for Runctl sampling *)
  mutable w_expanding : int;  (* id of the entry being expanded *)
}

(* Why a search is winding down.  [Running] is an immediate
   constructor, so first-one-wins transitions are
   [compare_and_set stop Running _]. *)
type stop_state =
  | Running
  | Found of entry
  | Interrupted of Runctl.reason
  | Crashed of exn * string  (* exception and backtrace of the first crash *)

type search_result = {
  sr_chain : (int * Compiled.cedge) list list option;
  sr_stats : stats;
  sr_interrupt : Runctl.reason option;
  sr_snapshot : snapshot option;
}

(* Critical sections never block and never call user code, but an
   exception leaking out of one must not leave the mutex held. *)
let with_lock m f =
  Mutex.lock m;
  match f () with
  | v ->
    Mutex.unlock m;
    v
  | exception exn ->
    Mutex.unlock m;
    raise exn

(* Ring helpers; callers hold [d_lock] and refresh [d_size]. *)
let deque_reserve d filler =
  let cap = Array.length d.d_buf in
  if d.d_len = cap then begin
    let nb = Array.make (max 64 (2 * cap)) filler in
    for i = 0 to d.d_len - 1 do
      nb.(i) <- d.d_buf.((d.d_head + i) mod cap)
    done;
    d.d_buf <- nb;
    d.d_head <- 0
  end

let deque_push_back d e =
  deque_reserve d e;
  d.d_buf.((d.d_head + d.d_len) mod Array.length d.d_buf) <- e;
  d.d_len <- d.d_len + 1

let deque_push_front d e =
  deque_reserve d e;
  let cap = Array.length d.d_buf in
  d.d_head <- (d.d_head + cap - 1) mod cap;
  d.d_buf.(d.d_head) <- e;
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

let find_node nodes h st =
  let rec go = function
    | [] -> None
    | n :: rest ->
      if n.n_hash = h && n.n_mon = st.st_mon && n.n_locs = st.st_locs
         && n.n_vars = st.st_vars
      then Some n
      else go rest
  in
  go nodes

let bucket sh h =
  let tbl = Atomic.get sh.s_table in
  tbl.((h lsr shard_shift) land (Array.length tbl - 1))

let search ?(jobs = 1) ?(on_expanded = fun _ _ -> `Continue)
    ?(on_transition = fun _ -> ()) ?(subsume = true) ?expand ?ctl ?order
    ?resume ?(label = "") ?(payload = fun () -> "") t visit =
  let jobs = max 1 jobs in
  if jobs > 1 && Option.is_some expand then
    invalid_arg "Explorer.search: an expand hook runs at jobs = 1 only";
  let direct = jobs = 1 in
  let dim = t.comp.Compiled.c_nclocks + 1 in
  let nshards = if direct then 1 else num_shards in
  let shards =
    Array.init nshards (fun _ ->
        { s_lock = Mutex.create ();
          s_table =
            Atomic.make
              (Array.init (if direct then 1024 else 64) (fun _ ->
                   Atomic.make []));
          s_nodes = 0 })
  in
  let wstates =
    Array.init jobs (fun w ->
        { w_index = w;
          w_pool = fresh_pool t;
          w_deque =
            { d_lock = Mutex.create (); d_buf = [||]; d_head = 0; d_len = 0;
              d_size = Atomic.make 0 };
          w_buf = Array.make nshards [];
          w_nbuf = Array.make nshards 0;
          w_buffered = 0;
          w_tick = 0;
          w_expanding = -1 })
  in
  let next_id = Atomic.make 0 and pending = Atomic.make 0 in
  let visited = Atomic.make 0 and stored = Atomic.make 0 in
  let stop = Atomic.make Running in
  let hard_limit =
    match Option.bind ctl (fun c -> (Runctl.budget c).Runctl.b_states) with
    | Some n -> min n t.limit
    | None -> t.limit
  in
  let ordered = (not direct) && Option.is_some order in
  let score_of = match order with Some f when ordered -> f | _ -> fun _ -> 0 in
  let progress = direct && Lazy.force env_progress in
  let running () = match Atomic.get stop with Running -> true | _ -> false in
  (* an interrupted fleet finishes its in-flight expansions and flushes,
     so the cut stays coherent; [Found]/[Crashed] abandon at once *)
  let winding_down_ok () =
    match Atomic.get stop with
    | Running | Interrupted _ -> true
    | Found _ | Crashed _ -> false
  in
  let set_stop s = ignore (Atomic.compare_and_set stop Running s) in
  (* the per-entry key prefilters both subsumption scans: with
     subsumption it is the zone weight ({!Zone.Dbm.weight}, a dominance
     measure), so an entry can cover the newcomer only when at least as
     heavy and be covered by it only when no heavier — most probes are an
     integer compare instead of an O(dim^2) inclusion walk *)
  let key_of z = if subsume then Zone.Dbm.weight z else Zone.Dbm.hash z in
  let rec covered entries z k =
    match entries with
    | [] -> false
    | e :: rest ->
      (if subsume then e.e_key >= k && Zone.Dbm.includes e.e_state.st_zone z
       else e.e_key = k && Zone.Dbm.equal e.e_state.st_zone z)
      || covered rest z k
  in
  (* [l] minus the entries the newcomer covers: physically [l] when it
     covers none.  With [commit], the pruned entries are marked dead and,
     at jobs = 1, their zones return to [ws]'s pool. *)
  let rec prune commit ws z k l =
    match l with
    | [] -> l
    | e :: rest ->
      if subsume && e.e_key <= k && Zone.Dbm.includes z e.e_state.st_zone
      then begin
        if commit then begin
          e.e_dead <- true;
          if direct && e.e_id <> ws.w_expanding then
            Zone.Dbm.Pool.release ws.w_pool e.e_state.st_zone
        end;
        prune commit ws z k rest
      end
      else
        let rest' = prune commit ws z k rest in
        if rest' == rest then l else e :: rest'
  in
  (* mark dead the entries of [seen] missing from its pruned
     subsequence [keep] *)
  let rec mark_killed seen keep =
    if seen != keep then
      match seen, keep with
      | e :: rest, e' :: rest' when e == e' -> mark_killed rest rest'
      | e :: rest, _ ->
        e.e_dead <- true;
        mark_killed rest keep
      | [], _ -> ()
  in
  let grow sh =
    let tbl = Array.init (2 * Array.length (Atomic.get sh.s_table)) (fun _ ->
        Atomic.make [])
    in
    let mask = Array.length tbl - 1 in
    Array.iter
      (fun b ->
        List.iter
          (fun n ->
            let b' = tbl.((n.n_hash lsr shard_shift) land mask) in
            Atomic.set b' (n :: Atomic.get b'))
          (Atomic.get b))
      (Atomic.get sh.s_table);
    Atomic.set sh.s_table tbl
  in
  (* the node of [st]'s discrete part, created empty when missing; the
     caller holds the shard lock or runs before the workers start *)
  let node_for sh h st =
    let b = bucket sh h in
    match find_node (Atomic.get b) h st with
    | Some n -> n
    | None ->
      let n =
        { n_hash = h; n_locs = st.st_locs; n_vars = st.st_vars;
          n_mon = st.st_mon; n_entries = Atomic.make [] }
      in
      Atomic.set b (n :: Atomic.get b);
      sh.s_nodes <- sh.s_nodes + 1;
      if sh.s_nodes > 2 * Array.length (Atomic.get sh.s_table) then grow sh;
      n
  in
  (* a successor's quiescence token is taken when it is offered and
     released here when it is covered *)
  let drop ws st =
    Zone.Dbm.Pool.release ws.w_pool st.st_zone;
    Atomic.decr pending
  in
  (* caller holds the shard lock *)
  let commit n keep parent movers st k score =
    let e =
      { e_id = Atomic.fetch_and_add next_id 1; e_state = st; e_key = k;
        e_parent = parent; e_movers = movers; e_score = score;
        e_dead = false }
    in
    Atomic.set n.n_entries (e :: keep);
    Atomic.incr stored;
    e
  in
  let insert_locked ws sh h parent movers st k score =
    let n = node_for sh h st in
    let cur = Atomic.get n.n_entries in
    if covered cur st.st_zone k then begin
      drop ws st;
      None
    end
    else
      Some (commit n (prune true ws st.st_zone k cur) parent movers st k score)
  in
  let announce ws e =
    match visit ws.w_index e.e_state with
    | `Stop -> set_stop (Found e)
    | `Continue -> ()
  in
  (* The jobs = 1 hot path (push, pop, direct insert) locks without a
     closure: its critical sections cannot raise, and at jobs = 1 no
     other worker could wait on the lock anyway. *)
  let push_one ws e =
    let dq = ws.w_deque in
    Mutex.lock dq.d_lock;
    deque_push_back dq e;
    Atomic.set dq.d_size dq.d_len;
    Mutex.unlock dq.d_lock
  in
  (* deliver [ws]'s buffered successors for shard [si]: a lock-free
     probe of each, then one lock acquisition for the whole batch *)
  let flush_shard ws si =
    let items = ws.w_buf.(si) in
    ws.w_buf.(si) <- [];
    ws.w_buffered <- ws.w_buffered - ws.w_nbuf.(si);
    ws.w_nbuf.(si) <- 0;
    let sh = shards.(si) in
    let probed =
      List.rev_map
        (fun it ->
          let z = it.c_state.st_zone and k = it.c_key in
          let nodes = Atomic.get (bucket sh it.c_hash) in
          match find_node nodes it.c_hash it.c_state with
          | None -> (it, Recheck)
          | Some n ->
            let seen = Atomic.get n.n_entries in
            if covered seen z k then (it, Covered)
            else (it, Publish (n, seen, prune false ws z k seen)))
        items
    in
    let published =
      with_lock sh.s_lock (fun () ->
          List.fold_left
            (fun acc (it, p) ->
              match p with
              | Covered ->
                drop ws it.c_state;
                acc
              | Publish (n, seen, keep) when Atomic.get n.n_entries == seen ->
                mark_killed seen keep;
                commit n keep it.c_parent it.c_movers it.c_state it.c_key
                  it.c_score
                :: acc
              | Publish _ | Recheck ->
                (match
                   insert_locked ws sh it.c_hash it.c_parent it.c_movers
                     it.c_state it.c_key it.c_score
                 with
                 | Some e -> e :: acc
                 | None -> acc))
            [] probed)
    in
    let pub =
      if ordered then
        List.stable_sort (fun a b -> compare a.e_score b.e_score)
          (List.rev published)
      else List.rev published
    in
    List.iter (push_one ws) pub;
    List.iter (announce ws) pub
  in
  let flush_all ws =
    for si = 0 to nshards - 1 do
      if ws.w_nbuf.(si) > 0 then flush_shard ws si
    done
  in
  let offer ws parent movers st =
    let h = hash_discrete st.st_locs st.st_vars st.st_mon in
    let k = key_of st.st_zone in
    Atomic.incr pending;
    if direct then begin
      let sh = shards.(0) in
      Mutex.lock sh.s_lock;
      let r = insert_locked ws sh h parent movers st k 0 in
      Mutex.unlock sh.s_lock;
      match r with
      | Some e ->
        push_one ws e;
        announce ws e
      | None -> ()
    end
    else begin
      let si = h land (nshards - 1) in
      ws.w_buf.(si) <-
        { c_hash = h; c_parent = parent; c_movers = movers; c_state = st;
          c_key = k; c_score = score_of st }
        :: ws.w_buf.(si);
      ws.w_nbuf.(si) <- ws.w_nbuf.(si) + 1;
      ws.w_buffered <- ws.w_buffered + 1;
      if ws.w_nbuf.(si) >= batch_size then flush_shard ws si
    end
  in
  let rec reserve_expansion () =
    let v = Atomic.get visited in
    if v >= hard_limit then false
    else if Atomic.compare_and_set visited v (v + 1) then true
    else reserve_expansion ()
  in
  (* [true] when [e] was expanded; [false] when a budget or cancellation
     stopped the search first (the caller puts [e] back) *)
  let expand_entry ws e =
    let veto =
      match ctl with
      | None -> None
      | Some c ->
        let tick = ws.w_tick in
        ws.w_tick <- tick + 1;
        Runctl.check c ~visited:(Atomic.get visited) ~tick
    in
    match veto with
    | Some r ->
      set_stop (Interrupted r);
      false
    | None when not (reserve_expansion ()) ->
      set_stop (Interrupted (Runctl.State_budget hard_limit));
      false
    | None ->
      if progress && Atomic.get visited mod 1_000 = 0 then
        Printf.eprintf "[mc] visited %d stored %d queue %d\n%!"
          (Atomic.get visited) (Atomic.get stored) ws.w_deque.d_len;
      ws.w_expanding <- e.e_id;
      let parent = Some e and successors = ref 0 in
      let handle cd st =
        incr successors;
        on_transition cd;
        offer ws parent cd.cd_movers st
      in
      (match expand with
       | None ->
         List.iter
           (fun cd ->
             if winding_down_ok () then
               match fire t ws.w_pool e.e_state cd with
               | None -> ()
               | Some st -> handle cd st)
           (candidates t e.e_state)
       | Some f ->
         (* an expansion override produces the whole (candidate,
            successor) list up front; processing still honours [`Stop]
            like the inline path, so counters and callback order are
            byte-identical *)
         List.iter
           (fun (cd, succ) ->
             if winding_down_ok () then
               match succ with None -> () | Some st -> handle cd st)
           (f ws.w_pool e.e_state));
      if running () then begin
        match on_expanded e.e_state !successors with
        | `Stop -> set_stop (Found e)
        | `Continue -> ()
      end;
      true
  in
  let rec pop_live dq =
    match (if ordered then deque_pop_back dq else deque_pop_front dq) with
    | Some e when e.e_dead ->
      Atomic.decr pending;
      pop_live dq
    | r -> r
  in
  let pop_own ws =
    let dq = ws.w_deque in
    Mutex.lock dq.d_lock;
    let r = pop_live dq in
    Atomic.set dq.d_size dq.d_len;
    Mutex.unlock dq.d_lock;
    r
  in
  (* undo [pop_own], so an interrupted cut keeps the waiting order *)
  let unpop ws e =
    let dq = ws.w_deque in
    Mutex.lock dq.d_lock;
    if ordered then deque_push_back dq e else deque_push_front dq e;
    Atomic.set dq.d_size dq.d_len;
    Mutex.unlock dq.d_lock
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
                (* up to half the victim's deque, oldest first *)
                let rec front k acc =
                  if k = 0 then acc
                  else
                    match deque_pop_front vd with
                    | None -> acc
                    | Some e when e.e_dead ->
                      Atomic.decr pending;
                      front k acc
                    | Some e -> front (k - 1) (e :: acc)
                in
                let l = front (min batch_size (vd.d_len - (vd.d_len / 2))) [] in
                Atomic.set vd.d_size vd.d_len;
                List.rev l)
          in
          match grabbed with
          | [] -> scan (i + 1)
          | first :: rest ->
            List.iter (push_one ws) rest;
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
  let crashed exn = set_stop (Crashed (exn, Printexc.get_backtrace ())) in
  let worker w =
    let ws = wstates.(w) in
    (* idle backoff: spin briefly (steals usually succeed within a few
       probes while work exists), then sleep sub-millisecond slices so
       an idle worker stops eating a core the busy ones need *)
    let idle = ref 0 in
    let rec loop () =
      if running () then begin
        match take ws with
        | Some e ->
          idle := 0;
          if expand_entry ws e then Atomic.decr pending else unpop ws e;
          loop ()
        | None ->
          if Atomic.get pending > 0 then begin
            incr idle;
            if !idle < 64 then Domain.cpu_relax ()
            else Unix.sleepf (if !idle < 256 then 0.000_05 else 0.000_5);
            loop ()
          end
      end
    in
    (try loop () with exn -> crashed exn);
    (* deliver still-buffered successors so store and deques form a
       coherent cut; harmless after [Found] (a late [Found] loses) *)
    try flush_all ws with exn -> crashed exn
  in
  (* seeding and resume run on the calling domain before any worker
     spawns; a crash in the seed visit is supervised like any other,
     while a mismatched snapshot raises to the caller *)
  let old_trace =
    match resume with
    | None ->
      (try
         let initial = initial_state t in
         if not (Zone.Dbm.is_empty initial.st_zone) then begin
           offer wstates.(0) None [] initial;
           flush_all wstates.(0)
         end
       with exn -> crashed exn);
      [||]
    | Some snap ->
      check_snapshot t ~label ~subsume snap;
      Atomic.set next_id snap.snap_next_id;
      Atomic.set visited snap.snap_visited;
      Atomic.set stored snap.snap_stored;
      let by_id = Hashtbl.create 4096 in
      List.iter
        (fun se ->
          let st =
            { st_locs = se.se_locs; st_vars = se.se_vars; st_mon = se.se_mon;
              st_zone = Zone.Dbm.of_ints ~dim se.se_zone }
          in
          let e =
            { e_id = se.se_id; e_state = st; e_key = key_of st.st_zone;
              e_parent = None; e_movers = []; e_score = score_of st;
              e_dead = false }
          in
          Hashtbl.replace by_id se.se_id e;
          let h = hash_discrete st.st_locs st.st_vars st.st_mon in
          let n = node_for shards.(h land (nshards - 1)) h st in
          Atomic.set n.n_entries (e :: Atomic.get n.n_entries))
        snap.snap_entries;
      (* the frontier spreads round-robin over the workers; the visit
         callback is not replayed for restored states, whose effect on
         the caller's accumulator comes back through the payload *)
      Array.iteri
        (fun i id ->
          Atomic.incr pending;
          push_one wstates.(i mod jobs) (Hashtbl.find by_id id))
        snap.snap_queue;
      snap.snap_trace
  in
  let domains =
    Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker (i + 1)))
  in
  worker 0;
  Array.iter Domain.join domains;
  (* everything below runs after the join, which orders every worker
     write before these reads *)
  let frontier =
    Array.fold_left
      (fun acc ws ->
        let dq = ws.w_deque in
        let rec go i acc =
          if i >= dq.d_len then acc
          else
            let e = dq.d_buf.((dq.d_head + i) mod Array.length dq.d_buf) in
            go (i + 1) (if e.e_dead then acc else e :: acc)
        in
        go 0 acc)
      [] wstates
  in
  let stats =
    { visited = Atomic.get visited; stored = Atomic.get stored;
      frontier = List.length frontier }
  in
  (* edge lookup by (automaton, declaration index), for the trace rows
     of a resumed-from snapshot *)
  let edge_by_index =
    lazy
      (Array.map
         (fun a ->
           let tbl = Hashtbl.create 64 in
           Array.iter
             (List.iter (fun ce -> Hashtbl.replace tbl ce.Compiled.ce_index ce))
             a.Compiled.ca_out;
           tbl)
         t.comp.Compiled.c_automata)
  in
  let chain_of e =
    let rec restored acc id =
      if id >= Array.length old_trace || fst old_trace.(id) < 0 then acc
      else
        let parent, movers = old_trace.(id) in
        let edges = Lazy.force edge_by_index in
        restored
          (List.map (fun (ai, idx) -> (ai, Hashtbl.find edges.(ai) idx)) movers
          :: acc)
          parent
    in
    let rec walk acc e =
      match e.e_parent with
      | Some p -> walk (e.e_movers :: acc) p
      | None -> restored acc e.e_id
    in
    walk [] e
  in
  let build_snapshot () =
    let live = ref [] in
    Array.iter
      (fun sh ->
        Array.iter
          (fun b ->
            List.iter
              (fun n ->
                List.iter
                  (fun e -> if not e.e_dead then live := e :: !live)
                  (Atomic.get n.n_entries))
              (Atomic.get b))
          (Atomic.get sh.s_table))
      shards;
    let nid = Atomic.get next_id in
    let trace = Array.make nid (-1, []) in
    let filled = Array.make nid false in
    (* rows of the resumed-from snapshot survive verbatim *)
    Array.iteri
      (fun id row ->
        trace.(id) <- row;
        filled.(id) <- true)
      old_trace;
    (* walk parent chains so pruned ancestors of live entries get their
       rows too; stops at the first row already filled *)
    let rec fill e =
      if not filled.(e.e_id) then begin
        filled.(e.e_id) <- true;
        match e.e_parent with
        | None -> ()
        | Some p ->
          let ix (ai, ce) = (ai, ce.Compiled.ce_index) in
          trace.(e.e_id) <- (p.e_id, List.map ix e.e_movers);
          fill p
      end
    in
    List.iter fill !live;
    (* entries and queue sorted by id: the cut is a function of the final
       store, not of the worker interleaving that produced it *)
    let entries =
      !live
      |> List.map (fun e ->
             { se_id = e.e_id; se_locs = e.e_state.st_locs;
               se_vars = e.e_state.st_vars; se_mon = e.e_state.st_mon;
               se_zone = Zone.Dbm.to_ints e.e_state.st_zone })
      |> List.sort (fun a b -> compare a.se_id b.se_id)
    in
    { snap_fingerprint = fingerprint t;
      snap_label = label;
      snap_dim = dim;
      snap_subsume = subsume;
      snap_next_id = nid;
      snap_visited = stats.visited;
      snap_stored = stats.stored;
      snap_entries = entries;
      snap_queue =
        Array.of_list (List.sort compare (List.map (fun e -> e.e_id) frontier));
      snap_trace = trace;
      snap_payload = payload () }
  in
  let result ?chain ?interrupt ?snapshot () =
    { sr_chain = chain; sr_stats = stats; sr_interrupt = interrupt;
      sr_snapshot = snapshot }
  in
  match Atomic.get stop with
  | Crashed (exn, bt) ->
    (* a crashed cut may be incoherent: no snapshot *)
    let bt = String.trim bt in
    let diag =
      if bt = "" then Printexc.to_string exn
      else Printexc.to_string exn ^ "\n" ^ bt
    in
    result ~interrupt:(Runctl.Crash diag) ()
  | Found e -> result ~chain:(chain_of e) ()
  | Interrupted r -> result ~interrupt:r ~snapshot:(build_snapshot ()) ()
  | Running -> result ()

let describe_chain t chain =
  List.map
    (fun movers -> describe t { cd_movers = movers; cd_chan = None })
    chain

type reach_result = {
  r_trace : string list option;
  r_stats : stats;
  r_interrupt : Runctl.reason option;
}

let reach_of t r =
  { r_trace = Option.map (describe_chain t) r.sr_chain;
    r_stats = r.sr_stats;
    r_interrupt = r.sr_interrupt }

let reachable ?jobs ?expand ?ctl t pred =
  reach_of t
    (search ?jobs ?expand ?ctl ~label:"reachable" t (fun _ st ->
         if pred st then `Stop else `Continue))

type sup_result =
  | Sup_unreached
  | Sup of int * bool
  | Sup_exceeds of int

(* The running sup after a state whose clock supremum is [b].  Returns
   [acc] physically unchanged when the sup does not move, so the common
   case allocates nothing.  At equal values a non-strict bound beats a
   strict one ([<= v] is the weaker claim). *)
let fold_sup ~ceiling acc b =
  if Zone.Bound.is_infinite b then
    match acc with Sup_exceeds _ -> acc | _ -> Sup_exceeds ceiling
  else
    let v = Zone.Bound.constant b and strict = Zone.Bound.is_strict b in
    match acc with
    | Sup_exceeds _ -> acc
    | Sup_unreached -> Sup (v, strict)
    | Sup (v0, s0) ->
      if v > v0 || (v = v0 && s0 && not strict) then Sup (v, strict) else acc

(* One worker's running sup folded into another's, through [fold_sup]. *)
let merge_sup ~ceiling acc = function
  | Sup_unreached -> acc
  | Sup (v, strict) ->
    fold_sup ~ceiling acc (if strict then Zone.Bound.lt v else Zone.Bound.le v)
  | Sup_exceeds _ -> fold_sup ~ceiling acc Zone.Bound.infinity

type sup_outcome = {
  so_sup : sup_result;
  so_stats : stats;
  so_interrupt : Runctl.reason option;
  so_snapshot : snapshot option;
}

let sup_clock ?(jobs = 1) ?expand ?ctl ?resume t ~pred ~clock =
  let jobs = max 1 jobs in
  let ci, ceiling = monitor_clock_info t clock in
  let label = "sup:" ^ clock in
  (* validate before unmarshalling the payload: a mismatched snapshot
     must raise, not feed foreign bytes to [Marshal.from_string] *)
  Option.iter (check_snapshot t ~label ~subsume:true) resume;
  (* one running sup per worker, merged at the end; the merged sup
     travels with a snapshot and comes back as worker 0's *)
  let bests =
    Array.init jobs (fun i ->
        ref
          (match resume with
           | Some snap when i = 0 && snap.snap_payload <> "" ->
             (Marshal.from_string snap.snap_payload 0 : sup_result)
           | Some _ | None -> Sup_unreached))
  in
  let visit w st =
    if pred st then begin
      let best = bests.(w) in
      best := fold_sup ~ceiling !best (Zone.Dbm.sup_clock st.st_zone ci)
    end;
    `Continue
  in
  let merged () =
    Array.fold_left (fun acc b -> merge_sup ~ceiling acc !b) !(bests.(0))
      (Array.sub bests 1 (jobs - 1))
  in
  (* max-delay-first at jobs > 1: high monitor-clock suprema first, so
     the running sup peaks early and subsumption prunes the low-delay
     frontier instead of expanding it *)
  let order st =
    let b = Zone.Dbm.sup_clock st.st_zone ci in
    if Zone.Bound.is_infinite b then max_int else Zone.Bound.constant b
  in
  let payload () = Marshal.to_string (merged ()) [] in
  let r = search ~jobs ?expand ?ctl ~order ?resume ~label ~payload t visit in
  { so_sup = merged ();
    so_stats = r.sr_stats;
    so_interrupt = r.sr_interrupt;
    so_snapshot = r.sr_snapshot }

let pp_sup_result ppf = function
  | Sup_unreached -> Fmt.string ppf "unreached"
  | Sup (v, true) -> Fmt.pf ppf "< %d" v
  | Sup (v, false) -> Fmt.pf ppf "<= %d" v
  | Sup_exceeds c -> Fmt.pf ppf "> %d (ceiling)" c

(* --- timelock detection ------------------------------------------------ *)

(* A reachable state where no discrete transition is possible and time is
   blocked: either an urgent/committed location pins the clock, or some
   location invariant caps a clock (the stored zones are delay-closed, so
   a finite supremum means time cannot diverge).  Quiescent terminal
   states -- no successors but unbounded delay -- are not timelocks. *)
let find_timelock ?ctl t =
  let time_blocked st =
    no_delay_present t.comp st.st_locs
    ||
    let z = st.st_zone in
    let dim = Zone.Dbm.dim z in
    let rec bounded i =
      i < dim
      && ((not (Zone.Bound.is_infinite (Zone.Dbm.sup_clock z i)))
          || bounded (i + 1))
    in
    bounded 1
  in
  let on_expanded st nsucc =
    if nsucc = 0 && time_blocked st then `Stop else `Continue
  in
  (* Subsumption can hide a time-pinned sub-zone inside a wider live zone,
     so the timelock search deduplicates by zone equality only. *)
  reach_of t
    (search ?ctl ~on_expanded ~subsume:false ~label:"timelock" t (fun _ _ ->
         `Continue))

(* --- timed witness traces ---------------------------------------------- *)

type timed_step = {
  td_desc : string;
  td_earliest : int * bool;
  td_latest : (int * bool) option;
}

let pp_time_bound ppf (v, strict) =
  if strict then Fmt.pf ppf "%d+" v else Fmt.int ppf v

let pp_timed_step ppf step =
  let time =
    match step.td_latest with
    | Some hi when hi = step.td_earliest ->
      Fmt.str "t = %a" pp_time_bound step.td_earliest
    | Some hi ->
      Fmt.str "t in [%a, %a]" pp_time_bound step.td_earliest pp_time_bound hi
    | None -> Fmt.str "t >= %a" pp_time_bound step.td_earliest
  in
  Fmt.pf ppf "%-18s %s" time step.td_desc

(* Replay a fixed transition chain exactly (no extrapolation, no
   reduction) with an extra never-reset clock measuring absolute time;
   the clock's interval at each firing gives the possible firing times of
   that step among runs following this chain.  [None] means the chain is
   infeasible — some guard or invariant empties the zone along the way.
   Exposed separately from [timed_trace] so a witness chain found at
   jobs > 1 can be validated and annotated. *)
let replay t chain =
  let tclock = "psv_abs_time" in
  let comp = Compiled.compile ~extra_clocks:[ tclock ] t.comp.Compiled.c_model in
  let find_edge ai idx =
    let hit = ref None in
    Array.iter
      (List.iter (fun ce -> if ce.Compiled.ce_index = idx then hit := Some ce))
      comp.Compiled.c_automata.(ai).Compiled.ca_out;
    match !hit with Some ce -> ce | None -> assert false
  in
  let ti = Compiled.clock_index comp tclock in
  let locs =
    ref (Array.map (fun a -> a.Compiled.ca_initial) comp.Compiled.c_automata)
  in
  let vars = ref (Array.copy comp.Compiled.c_var_init) in
  let z = Zone.Dbm.zero (comp.Compiled.c_nclocks + 1) in
  delay_close comp !locs z;
  let steps = ref [] in
  let feasible = ref (not (Zone.Dbm.is_empty z)) in
  List.iter
    (fun movers ->
      if !feasible then begin
        let movers' =
          List.map
            (fun (ai, (ce : Compiled.cedge)) ->
              (ai, find_edge ai ce.Compiled.ce_index))
            movers
        in
        List.iter
          (fun (_, ce) -> apply_dconstraints z ce.Compiled.ce_guard)
          movers';
        if Zone.Dbm.is_empty z then feasible := false
        else begin
          let lo, lo_strict = Zone.Dbm.inf_clock z ti in
          let hi_bound = Zone.Dbm.sup_clock z ti in
          let hi =
            if Zone.Bound.is_infinite hi_bound then None
            else
              Some (Zone.Bound.constant hi_bound, Zone.Bound.is_strict hi_bound)
          in
          steps :=
            { td_desc = describe t { cd_movers = movers; cd_chan = None };
              td_earliest = (lo, lo_strict);
              td_latest = hi }
            :: !steps;
          let next_locs = Array.copy !locs in
          List.iter (fun (ai, ce) -> next_locs.(ai) <- ce.Compiled.ce_dst) movers';
          vars :=
            List.fold_left
              (fun vals (_, ce) ->
                Compiled.apply_updates comp vals ce.Compiled.ce_updates)
              !vars movers';
          List.iter
            (fun (_, ce) -> List.iter (Zone.Dbm.reset z) ce.Compiled.ce_resets)
            movers';
          locs := next_locs;
          delay_close comp !locs z;
          if Zone.Dbm.is_empty z then feasible := false
        end
      end)
    chain;
  if !feasible then Some (List.rev !steps) else None

let timed_trace t pred =
  let visit _ st = if pred st then `Stop else `Continue in
  match (search ~label:"reachable" t visit).sr_chain with
  | None -> None
  | Some chain -> replay t chain

(* --- coverage ----------------------------------------------------------- *)

type coverage = {
  cov_unreached_locations : (string * string) list;
  cov_unfired_edges : string list;
  cov_stats : stats;
}

(* Explore everything, recording which locations were entered and which
   edges fired; the complement is dead model structure worth reviewing. *)
let coverage t =
  let comp = t.comp in
  let nauts = Array.length comp.Compiled.c_automata in
  let seen_locs =
    Array.init nauts (fun ai ->
        Array.make
          (Array.length comp.Compiled.c_automata.(ai).Compiled.ca_locs)
          false)
  in
  let fired : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let visit _ st =
    Array.iteri (fun ai li -> seen_locs.(ai).(li) <- true) st.st_locs;
    `Continue
  in
  let on_transition cd =
    List.iter
      (fun (ai, (ce : Compiled.cedge)) ->
        Hashtbl.replace fired (ai, ce.Compiled.ce_index) ())
      cd.cd_movers
  in
  let stats = (search ~on_transition ~label:"coverage" t visit).sr_stats in
  let unreached = ref [] in
  Array.iteri
    (fun ai seen ->
      let a = comp.Compiled.c_automata.(ai) in
      Array.iteri
        (fun li entered ->
          if not entered then
            unreached :=
              (a.Compiled.ca_name, a.Compiled.ca_locs.(li).Compiled.cl_name)
              :: !unreached)
        seen)
    seen_locs;
  let unfired = ref [] in
  Array.iteri
    (fun ai a ->
      Array.iter
        (List.iter (fun (ce : Compiled.cedge) ->
             if not (Hashtbl.mem fired (ai, ce.Compiled.ce_index)) then
               unfired := Compiled.describe_edge comp ce :: !unfired))
        a.Compiled.ca_out)
    comp.Compiled.c_automata;
  { cov_unreached_locations = List.rev !unreached;
    cov_unfired_edges = List.rev !unfired;
    cov_stats = stats }
