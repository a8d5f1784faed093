(** Load-hoisting list scheduler.

    The runtime-execution tile scoreboards loads: a load's latency is
    hidden when independent instructions separate it from its first use.
    This pass list-schedules each straight-line segment (never reordering
    across labels, branches, stores, traps, or the macro-ops) so that
    loads and the address arithmetic feeding them issue as early as
    dependences allow — the paper's "schedule instructions to hide
    functional unit latencies".

    Among ready instructions it picks a load, else an instruction a later
    load depends on, else any; ties go to the earliest in original order.
    The emitted order is exactly that of a scheduler comparing every pair
    of instructions for RAW/WAR/WAW conflicts ([r0] never conflicts), in
    time near-linear in the segment length. *)

val hoist_loads : Lblock.t -> unit
(** Reorders the body in place. Its dependence tables come from
    {!Workspace}, sized by the body's [len] and [nregs]. *)
