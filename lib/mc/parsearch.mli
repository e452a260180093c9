(** Domain-parallel zone exploration (OCaml 5 multicore).

    [Parsearch] runs the same zone exploration as {!Explorer} across
    [jobs] domains:

    - work lives in {e per-worker deques}: the owner pushes and pops at
      the back (one lock per pop), an idle worker steals a batch from
      the front of a victim's deque, and victims are probed through a
      lock-free size mirror — idle workers never contend a lock the
      busy ones need;
    - the passed store is sharded by the discrete-state hash
      ({!Explorer.hash_discrete}) into {!num_shards} shards of atomic
      buckets; successors transfer in {e batches}, one shard-lock
      acquisition per batch, and both subsumption directions run
      against a lock-free snapshot of the entry list {e outside} the
      lock (stored zones are immutable and published through
      [Atomic.t], so reads need no lock; publish decisions are
      revalidated under the lock by pointer equality);
    - each worker owns a private DBM scratch pool
      ({!Explorer.fresh_pool}); a successor that survives insertion
      transfers zone ownership to the store;
    - sup queries order each batch {e max-delay-first} (scored by the
      monitor clock's supremum), which reaches the final sup sooner and
      lets subsumption prune the low-delay frontier;
    - termination is a quiescence count of buffered successors, queued
      entries and in-flight expansions; it reaches zero exactly when no
      work exists anywhere and none can appear;
    - {!Runctl} budgets and cancellation work unchanged; the visited
      counter is reserved by CAS and can never pass the state budget,
      even transiently.

    {b Determinism.}  For every [jobs], verdicts and sup values are
    identical to the sequential explorer: the search runs to the same
    zone-graph fixpoint, every reachable zone ends up covered by a
    stored zone that is itself reachable, and the supremum of a clock
    over a covering set equals the supremum over the full reachable set.
    What {e may} differ with [jobs > 1] is everything order-dependent:
    visited/stored counts (subsumption prunes differently), the witness
    trace (a different but still feasible counterexample may be found
    first), and the partial sup of an interrupted run (still a sound
    lower bound).

    [jobs <= 1] delegates to the sequential {!Explorer.search}
    byte-identically — same visited/stored counts, same snapshots.
    Parallel runs print no [PSV_MC_PROGRESS] lines.

    {b Checkpoints.}  An interrupted parallel [sup_clock] emits a
    PSVSNAP2 snapshot, same format as the sequential one: the fleet
    finishes its in-flight expansions and flushes its buffers on a
    budget/cancel interrupt, so the serialized store plus frontier is a
    coherent cut of the search.  A snapshot taken at any [jobs] resumes
    at any other [jobs], to the same sup and verdict as an
    uninterrupted run.

    {b Supervision.}  A worker domain that raises does not kill the
    process: the first crash wins the stop cell, the remaining workers
    wind down at their next poll, and the search returns an interrupted
    result with {!Runctl.reason} [Crash] carrying the exception (and
    backtrace when recorded).  Callers observe a diagnosed [Unknown]
    verdict — never an escaping exception, and never a hang on the
    quiescence count (workers exit on the stop cell regardless of
    outstanding tokens) — so one poisoned query cannot take down a
    batch or the serve loop.  Crash results are never cached
    ({!Store.Entry.reusable}), and a crashed run emits no snapshot (its
    cut may be incoherent). *)

(** Shard count of the parallel passed store (a power of two, well
    above any sane worker count so shard contention stays low). *)
val num_shards : int

(** [Domain.recommended_domain_count ()]: the number of workers this
    host can actually run in parallel.  CLI layers clamp user-supplied
    [--jobs] to it (more workers than cores only adds contention);
    library functions do {e not} clamp, so tests can exercise
    multi-domain schedules on any host. *)
val recommended_jobs : unit -> int

(** [reachable ~jobs t pred] is {!Explorer.reachable} on [jobs]
    domains.  The witness trace, when present, is feasible (it is a
    real path of the zone graph) but need not be the one the
    sequential search finds.  [expand] is the sequential search's
    successor hook ({!Explorer.search}); it is honoured at [jobs <= 1]
    only.
    @raise Invalid_argument when [expand] is given with [jobs > 1]. *)
val reachable :
  ?jobs:int ->
  ?expand:(Zone.Dbm.Pool.t -> Explorer.state ->
           (Explorer.candidate * Explorer.state option) list) ->
  ?ctl:Runctl.t ->
  Explorer.t -> (Explorer.state -> bool) -> Explorer.reach_result

(** [sup_clock ~jobs t ~pred ~clock] is {!Explorer.sup_clock} on [jobs]
    domains: each worker folds a private running sup over the states it
    stores, and the per-worker results merge through the same
    {!Explorer.fold_sup} ([Sup_exceeds] dominates; at equal values a
    non-strict bound beats a strict one).  [resume] continues an
    interrupted run (sequential- or parallel-written snapshot alike); an
    interrupted run carries a snapshot in [so_snapshot].  [expand] as in
    {!reachable}: sequential only.
    @raise Invalid_argument when the snapshot does not match, or when
    [expand] is given with [jobs > 1]. *)
val sup_clock :
  ?jobs:int ->
  ?expand:(Zone.Dbm.Pool.t -> Explorer.state ->
           (Explorer.candidate * Explorer.state option) list) ->
  ?ctl:Runctl.t -> ?resume:Explorer.snapshot ->
  Explorer.t -> pred:(Explorer.state -> bool) -> clock:string ->
  Explorer.sup_outcome

(** [timed_witness ~jobs t pred] finds a witness chain (in parallel)
    and replays it sequentially via {!Explorer.replay}: the parallel
    analogue of {!Explorer.timed_trace}.  [None] when the predicate is
    unreachable (or not reached within budget).  Because every chain
    the search returns is a real zone-graph path, the replay of a found
    witness always succeeds. *)
val timed_witness :
  ?jobs:int -> ?ctl:Runctl.t ->
  Explorer.t -> (Explorer.state -> bool) ->
  Explorer.timed_step list option
