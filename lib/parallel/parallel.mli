(** A fixed pool of worker domains with deterministic, submission-order
    result merging.

    The contract every consumer in the pipeline relies on:

    - {b jobs = 1 is the exact sequential code path.} No domain is
      spawned, no mutex is taken; {!map} is [List.map], {!run} applies
      the thunks left to right. A pool of one job therefore cannot
      change observable behaviour, allocation order, or exception
      timing relative to the pre-pool code.
    - {b Results merge in submission order} regardless of which domain
      finishes first, so a pure task function gives bit-identical
      output for every jobs count.
    - {b Exceptions propagate and never wedge the pool.} A task that
      raises stores its exception; after the whole batch has drained,
      the exception of the {e earliest} failed task is re-raised with
      its backtrace. Workers survive — even an asynchronous
      [Out_of_memory] escaping a task's own handler is recorded into
      its slot and swallowed by the worker loop — and the pool remains
      usable for the next batch.
    - {b Budgets abort batches cooperatively.} When a cancellable
      [?budget] is passed, the first failing task cancels it, and every
      task polls the budget before starting: queued-but-unstarted tasks
      are skipped with [Budget.Exhausted]. FIFO dispatch puts every
      skipped index above every started one, so after the drain the
      earliest {e root} failure (not the [Exhausted Cancelled] it
      caused) is re-raised deterministically. With the default
      [Budget.unlimited] — which cannot be cancelled — the old
      drain-everything behaviour is unchanged.

    The pool is not re-entrant: calling {!run}/{!map} from inside a
    task of the same pool (or submitting from two domains at once) is
    not supported — parallelism in this codebase lives at one level
    (compactd's solve batches, harden candidates, Monte-Carlo chunks) by
    design. *)

type pool

val default_jobs : unit -> int
(** [COMPACT_JOBS] from the environment when it parses as a positive
    integer, otherwise 1. The CLI's [-j] flag overrides it; callers
    wanting full occupancy can pass
    [Domain.recommended_domain_count ()] explicitly. *)

val create : jobs:int -> pool
(** A pool executing up to [jobs] tasks concurrently: [jobs - 1]
    spawned worker domains plus the submitting domain, which helps
    drain the queue while it waits. [jobs = 1] spawns nothing.
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : pool -> int

val shutdown : pool -> unit
(** Joins the worker domains. Idempotent; {!run} on a shut-down pool
    raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (pool -> 'a) -> 'a
(** [create], run the function, and {!shutdown} even on exceptions.
    [jobs] defaults to {!default_jobs}[ ()]. *)

val run :
  ?budget:Resilience.Budget.t -> pool -> (unit -> 'a) array -> 'a array
(** Execute every thunk, possibly concurrently, and return their
    results in submission order. See the module preamble for the
    determinism, exception and budget contract. [budget] defaults to
    [Resilience.Budget.unlimited]; at jobs = 1 the budget is polled
    between elements so sequential and pooled runs share one abort
    surface. *)

val map :
  ?budget:Resilience.Budget.t ->
  ?chunk:int ->
  pool ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** Order-preserving parallel map. [chunk] (default 1) groups that many
    consecutive elements into one task to amortise queue traffic when
    the per-element work is small; chunking never changes the result
    order. With one job this is exactly [List.map f xs] plus a budget
    poll per element. *)
