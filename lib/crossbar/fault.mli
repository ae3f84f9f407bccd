(** Device-fault injection and Monte-Carlo yield analysis.

    Memristive devices suffer permanent stuck-at faults: a junction stuck
    in the low-resistive state ([Stuck_on], it always conducts) or in the
    high-resistive state ([Stuck_off], it never conducts, i.e. the device
    cannot be programmed). This module injects such faults into a design
    and measures their functional impact — the standard manufacturing
    yield question for crossbar-based in-memory computing. *)

type fault =
  | Stuck_on of int * int  (** (row, col): junction always conducts *)
  | Stuck_off of int * int  (** (row, col): junction never conducts *)

val inject : Design.t -> fault list -> Design.t
(** A new design with the faults applied, in list order: stuck-on
    junctions hold [Literal.On]; stuck-off junctions hold [Literal.Off]
    regardless of their programmed literal.
    @raise Invalid_argument on out-of-range coordinates. *)

val random_faults :
  ?seed:int -> rate:float -> Design.t -> fault list
(** Each *programmed* junction independently fails with probability
    [rate]; a failed device is stuck-off with probability 3/4 and
    stuck-on otherwise (stuck-off dominates empirically in filamentary
    devices). Faults on unprogrammed junctions are only of the stuck-on
    kind and are sampled at rate/10 over a matching device count.
    @raise Invalid_argument unless [0 <= rate <= 1]. *)

val still_correct :
  ?trials:int ->
  ?seed:int ->
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  bool
(** Functional check of a (possibly faulty) design: exhaustive over all
    assignments when the input count is at most
    {!Verify.exhaustive_threshold} (randomised checks miss
    single-minterm corruptions), otherwise [trials] (default 64) random
    assignments. *)

type yield_report = {
  trials : int;
  survivors : int;  (** fault instances that still computed correctly *)
  yield : float;  (** survivors / trials *)
  mean_faults : float;  (** average number of injected faults *)
}

val yield :
  ?seed:int ->
  ?trials:int ->
  ?checks_per_trial:int ->
  rate:float ->
  Design.t ->
  inputs:string list ->
  reference:(bool array -> bool array) ->
  outputs:string list ->
  yield_report
(** Monte-Carlo yield at a given device-fault [rate]; [trials] defaults
    to 100, each verified with {!still_correct} under a
    [checks_per_trial] (default 32) budget. Each trial's fault sample and
    check sample are derived deterministically from [seed] and the trial
    index, so two runs with the same arguments agree bit-for-bit. *)

val pp_yield : Format.formatter -> yield_report -> unit
