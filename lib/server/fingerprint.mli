(** Canonical design-cache keys.

    The COMPACT flow is deterministic end-to-end: the same SBDD labeled
    under the same options by the same engine yields a byte-identical
    crossbar. A cache key therefore names exactly those three things:

    {v key = hash(engine version × canonical SBDD × result options) v}

    The SBDD hash is computed over a {e canonical renaming} of the
    diagram — nodes are numbered in depth-first discovery order from the
    roots — so two managers that built the same logical diagram (in any
    allocation order, interleaved with any other work) produce the same
    key. Options enter through {!options} which renders only the fields
    that can change the output design; [jobs] and [deadline] are
    excluded (the former by the determinism contract, the latter because
    degraded results are never cached). *)

val sbdd : Bdd.Sbdd.t -> string
(** 16-hex-digit FNV-1a hash of the canonical diagram: the input order,
    then every reachable node in discovery order, an internal node as
    its (level, low id, high id) triple and a terminal as the one int
    [-1 - handle], then the named roots. Each int is mixed as its eight
    low bytes, low byte first, and each string as its bytes and then its
    length. Discovery ids live in an int array over the manager's
    handles, and the 64-bit state in two native ints, so hashing a
    diagram allocates only that array and the discovery list. *)

val options : Compact.Pipeline.options -> string
(** Canonical one-line rendering of the output-relevant option fields
    (gamma, solver, alignment, time limit, node limit, capacity
    bounds). *)

val key : options:Compact.Pipeline.options -> Bdd.Sbdd.t -> string
(** The cache key: 16 hex digits over {!Version.engine}, {!options} and
    {!sbdd}. *)
