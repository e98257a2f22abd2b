(** Buffer storage (the "storage optimizations performed by
    PolyMageDP" of the paper's §6.2): the one owner of full-buffer
    lifetimes and recycling.

    Each group live-out of a plan lives in a buffer {e slot}.  With
    recycling, a live-out takes the smallest slot whose buffer is dead
    — already past its last consumer group — and fits it, or a fresh
    slot when none does; pipeline outputs always take a fresh one.
    Without recycling every live-out has its own slot.  {!slots} is
    the assignment {!Tiled_exec.run} allocates from, so {!report}, which
    sums the same slots, is what the executor holds.  Everything is
    read from the plan IR: its members carry the live-out flags and
    buffer extents. *)

type lifetime = {
  stage : string;
  bytes : int;  (** the buffer's float elements × 8 *)
  born : int;  (** group index that produces the buffer *)
  dies : int;  (** last group index that reads it; [max_int] for pipeline outputs *)
}

type report = {
  lifetimes : lifetime list;  (** in group order *)
  peak_naive_bytes : int;  (** all live-outs resident simultaneously *)
  peak_reuse_bytes : int;  (** with dead-buffer recycling *)
}

type slots = {
  slot : int array;  (** per stage id: a live-out's slot, [-1] for other stages *)
  capacity : int array;  (** per slot: its length in floats *)
}

val lifetimes : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> lifetime list
(** Lifetime of every live-out buffer of the plan, in group order. *)

val slots : reuse:bool -> Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> slots
(** The slot of every live-out, recycling dead slots when [reuse]. *)

val report : Pmdp_dsl.Pipeline.t -> Pmdp_plan.t -> report
(** Bytes of the slots {!slots} assigns without and with [reuse]: the
    executor keeps each slot until the run returns, so these are its
    peak resident full-buffer bytes. *)
