(** A small UPPAAL-flavoured query language over networks.

    Grammar (whitespace-insensitive):

    {v
query ::= "E<>" pred                        existential reachability
        | "A[]" pred                        invariance
        | "sup:" chan "->" chan             maximum delay between two
            [ "ceiling" INT ]                 synchronisations (default
                                              ceiling 10000)
        | "bounded:" chan "->" chan "within" INT
                                            the paper's P(Δ)

pred  ::= term { "or" term }
term  ::= factor { "and" factor }
factor::= "not" factor | "(" pred ")" | atom | "true" | "false"
atom  ::= IDENT "." IDENT                   process at location
        | IDENT cmp INT                     variable comparison
cmp   ::= "==" | "!=" | "<" | "<=" | ">" | ">="
    v}

    Examples: ["E<> Pump.Infusing"], ["A[] iovf_BolusReq == 0"],
    ["sup: m_BolusReq -> c_StartInfusion ceiling 2000"],
    ["bounded: m_BolusReq -> c_StartInfusion within 500"]. *)

type pred =
  | At of string * string
  | Cmp of string * Ta.Expr.rel * int
  | Const of bool
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type t =
  | Exists_eventually of pred
  | Always of pred
  | Sup_delay of { trigger : string; response : string; ceiling : int }
  | Bounded_response of { trigger : string; response : string; bound : int }

type outcome =
  | Holds
  | Fails of string list option  (** counterexample trace when available *)
  | Sup of Explorer.sup_result
  | Unknown of Runctl.reason * Explorer.sup_result option
      (** the search was interrupted before a definite answer; for the
          timed queries the partial sup explored so far rides along.
          A [Bounded_response] whose partial sup already exceeds the
          bound is reported [Fails], not [Unknown] — the sup only grows. *)

(** An evaluated query: the three-valued outcome plus the exploration
    statistics (partial when the outcome is [Unknown]). *)
type result = {
  res_outcome : outcome;
  res_stats : Explorer.stats;
}

(** [parse text] parses a query.  Errors mention the offending token. *)
val parse : string -> (t, string) Stdlib.result

(** Canonical text form: [parse (to_string q) = Ok q], and two queries
    print equal iff their trees are equal (binary predicate nodes are
    fully parenthesized).  This is the query contribution to the result
    store's cache key. *)
val to_string : t -> string

(** {1 Evaluation}

    The one place a query becomes a search: {!explorer} builds the
    explorer (composing the delay monitor for the timed queries), {!run}
    searches it and reads the outcome.  The CLI, the result store
    ([Analysis.Qcache]), the serve tier, the incremental explorer
    ([Incr.Delta]) and the delay queries of [Analysis.Queries] all go
    through these. *)

(** [explorer ?limit net q] is the explorer [q] is evaluated on: a plain
    one for [E<>]/[A[]], one with a {!Monitor.delay} over
    {!delay_monitor_clock} (ceiling: the query's ceiling or bound) for
    [sup:]/[bounded:].
    @raise Ta.Compiled.Compile_error on an invalid network, [Not_found]
    if a timed query names an unknown channel. *)
val explorer : ?limit:int -> Ta.Model.network -> t -> Explorer.t

(** [run t q] evaluates [q] on [t] (built by {!explorer} for the same
    query) under the optional [ctl] govern token.  [jobs] (default 1)
    selects the number of exploration domains ({!Explorer.search}):
    same outcome at any [jobs], order-dependent statistics at
    [jobs > 1].  [expand] replaces successor generation of the search,
    e.g. with the recording or replaying expansion of [Incr.Delta]; it
    is honoured at [jobs = 1] only.
    @raise Invalid_argument when [expand] is given with [jobs > 1];
    [Not_found] if the query names an unknown process, location or
    variable. *)
val run :
  ?jobs:int ->
  ?expand:(Zone.Dbm.Pool.t -> Explorer.state ->
           (Explorer.candidate * Explorer.state option) list) ->
  ?ctl:Runctl.t -> Explorer.t -> t -> result

(** [eval ?limit net q] is [run (explorer ?limit net q) q]. *)
val eval :
  ?jobs:int -> ?ctl:Runctl.t -> ?limit:int -> Ta.Model.network -> t -> result

(** [delay_sup t] is the sup search of the timed queries on an explorer
    built by {!explorer}: the supremum of {!delay_monitor_clock} over
    the monitor's [Waiting] states, through {!Explorer.sup_clock}
    ([resume] continues an interrupted run from its snapshot).  Exposed
    for callers that need the snapshot ({!run} drops it). *)
val delay_sup :
  ?jobs:int ->
  ?expand:(Zone.Dbm.Pool.t -> Explorer.state ->
           (Explorer.candidate * Explorer.state option) list) ->
  ?ctl:Runctl.t -> ?resume:Explorer.snapshot -> Explorer.t ->
  Explorer.sup_outcome

(** [bounded_verdict interrupt sup bound] is the requirement
    [P(bound)] judged from a sup search: [Proved] when the sup stays
    within [bound] (or the trigger never fires), [Refuted] when it
    exceeds it — also under interruption, since a partial sup only grows
    with more exploration — and [Unknown] otherwise.  The ladder behind
    [bounded:] queries and [psv verify --bound]. *)
val bounded_verdict :
  Runctl.reason option -> Explorer.sup_result -> int -> Explorer.verdict

val pp_outcome : Format.formatter -> outcome -> unit

(** Compile a predicate against an explorer for direct use with
    {!Explorer.reachable} or {!Explorer.timed_trace}.
    @raise Not_found on unknown names. *)
val compile_pred : Explorer.t -> pred -> Explorer.state -> bool

(** The reserved clock name of the delay monitor {!explorer} composes
    for the timed queries.  It is part of the explorer's fingerprint, so
    checkpoints ({!Explorer.snapshot}) resume only under the same name. *)
val delay_monitor_clock : string
