(** Seeded, budgeted local search over per-group tile sizes.

    A move doubles or halves one dimension of one group's tile;
    candidates are deduplicated, scored by a caller-supplied evaluator
    (model cost or measured wall time), and accepted only when they
    improve on the best score — plain hill climbing, deterministic for
    a given seed/budget/evaluator.  Legality lives in the adapters,
    not in {!run}: {!tune_spec} gates every candidate, and {!tune_ir}'s
    caller re-admits the winner ({!Pmdp_plan.retile}, the plan
    admission gate). *)

type stats = {
  evaluated : int;  (** distinct candidates scored, initial point included *)
  accepted : int;  (** moves that improved the best score *)
  rejected : int;  (** candidates the evaluator refused *)
}

type result = { tiles : int array array; score : float; stats : stats }

val run :
  seed:int ->
  budget:int ->
  init:int array array ->
  evaluate:(int array array -> float option) ->
  result
(** [budget] caps evaluator calls (the initial point counts).  The
    evaluator gets a private copy of the candidate; [None] (or a
    non-finite score) rejects it.
    @raise Invalid_argument if [budget < 1] or the initial point does
    not evaluate. *)

val tune_spec :
  seed:int ->
  budget:int ->
  evaluate:(Pmdp_core.Schedule_spec.t -> float option) ->
  Pmdp_core.Schedule_spec.t ->
  Pmdp_core.Schedule_spec.t * result
(** Search from a schedule's own tiles; every candidate passes
    [Schedule_spec.validate] and [Pmdp_verify.Verify.check_legality]
    before the evaluator sees it, and one that fails either counts as
    rejected. *)

val model_evaluate : Pmdp_core.Cost_model.config -> Pmdp_core.Schedule_spec.t -> float option
(** Sum of predicted per-group costs under [config] — deterministic
    and execution-free (calibrated configs predict seconds). *)

val tune_ir :
  seed:int ->
  budget:int ->
  config:Pmdp_core.Cost_model.config ->
  pipeline:Pmdp_dsl.Pipeline.t ->
  Pmdp_plan.t ->
  int array array * result
(** Model-guided search over an already-lowered plan's tiles, scoring
    candidates straight from the IR's stage lists; the caller
    [Pmdp_plan.retile]s the winning matrix and re-admits it. *)
