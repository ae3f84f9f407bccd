(** Work budgets: one value carrying a wall deadline, node and memory
    budgets, and a cooperative cancellation token, threaded through every
    solver and pipeline stage in place of per-solver [time_limit]
    parameters.

    {b Contract.}  Solvers are {e anytime}: they poll {!exhausted} (or
    {!state}) at cheap, count-rated checkpoints and return their
    best-so-far incumbent when the budget runs out — they do not raise.
    Stages that cannot produce a partial result (e.g. BDD construction)
    call {!check}, which raises {!Exhausted}; the pipeline and CLI turn
    that into a structured report/error.

    {b Slicing.}  {!slice} gives a child budget whose deadline is a
    deterministic fraction of the parent's {e remaining} wall time, while
    the cancellation token and node counter stay shared, so cancelling
    the parent stops every slice.  {!limited} caps a budget by a
    seconds-from-now bound — the migration shim for old [time_limit]
    call sites.

    {b Cost.}  Polling an {!unlimited} budget is a handful of loads and
    branches (plus one disabled-injection check); no clock is read and
    nothing allocates, so polls can stay in solver hot loops. *)

type reason =
  | Deadline  (** wall deadline passed *)
  | Cancelled  (** {!cancel} was called (on this budget or a parent) *)
  | Nodes  (** the shared node budget was consumed *)
  | Memory  (** major-heap words exceeded the memory budget *)
  | Injected  (** {!Inject.Timeout} fired at a poll *)

val reason_name : reason -> string

exception Exhausted of reason
(** Raised by {!check} (and by budget-aware [Parallel] batches whose
    tasks were skipped). *)

type t

val unlimited : t
(** Never exhausts and cannot be cancelled — the default for every
    [?budget] parameter, preserving pre-budget behaviour exactly. *)

val create :
  ?deadline:float -> ?nodes:int -> ?memory_words:int -> unit -> t
(** A fresh cancellable budget. [deadline] is seconds from now on
    [Obs.Clock]; [nodes] bounds the solver nodes consumed via
    {!consume_nodes} across this budget and all its slices;
    [memory_words] bounds [Gc] heap words observed at polls. *)

val seconds : float -> t
(** [create ~deadline:s ()]; [seconds infinity] is a cancellable
    no-deadline budget.  The drop-in spelling for old
    [~time_limit:s] arguments. *)

val is_unlimited : t -> bool

val cancel : t -> unit
(** Trip the cancellation token shared with every slice of this budget.
    No-op on {!unlimited}. *)

val cancelled : t -> bool

val slice : t -> frac:float -> t
(** A child budget whose deadline is [now + frac * remaining] (clamped
    to the parent's own deadline), sharing the parent's cancellation
    token, node counter and memory bound. [slice unlimited] is
    [unlimited]-equivalent. *)

val limited : t -> float -> t
(** [limited t s]: [t] additionally capped at [s] seconds from now.
    [limited t infinity = t]. *)

val untimed : t -> t
(** [t] with the wall deadline removed but the shared cancellation
    token, node counter and memory bound kept.  For stages that must run
    to completion to produce anything at all (BDD construction): an
    already-expired deadline then degrades the {e later} anytime stages
    instead of leaving the pipeline with no output. *)

val remaining : t -> float
(** Seconds until the deadline ([infinity] when none, [0.] once
    passed). *)

val consume_nodes : t -> int -> unit
(** Charge [n] solver nodes against the shared node budget.  Free when
    no node budget was set. *)

val state : t -> reason option
(** [None] while work may continue.  The first poll that observes
    exhaustion records a [budget-exhausted] event and bumps the
    [budget.exhausted] counter in [Obs] (once per budget value). *)

val exhausted : t -> bool
val check : t -> unit
(** @raise Exhausted when [state] is [Some _]. *)

val protect_oom : (unit -> 'a) -> 'a
(** Run a stage, converting an escaping [Out_of_memory] (real or
    injected) into [Exhausted Memory] — the pipeline entry points wrap
    themselves in this so allocation failure degrades into a structured
    error instead of an uncaught exception. *)

val pp_reason : Format.formatter -> reason -> unit
