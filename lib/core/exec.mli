open Vat_desim
open Vat_guest

(** The runtime-execution tile: executes translated blocks with a timing
    model, dispatches between blocks through the code-cache hierarchy,
    chains direct branches in L1, scoreboards loads against the pipelined
    memory system, proxies system calls, and detects stores to translated
    pages.

    The engine runs ahead of the global event queue in local time while
    executing cache-hitting code, interacting with other tiles only
    through events scheduled at its local timestamp — see the design notes
    in DESIGN.md. *)

type outcome =
  | Exited of int
  | Fault of string
  | Out_of_fuel

type t

val create :
  Event_queue.t ->
  Stats.t ->
  Config.t ->
  Layout.t ->
  Program.t ->
  manager:Manager.t ->
  memsys:Memsys.t ->
  ?input:string ->
  ?trace:Vat_trace.Trace.t ->
  unit ->
  t
(** [trace] (default disabled) records block entries, L1 code-cache
    events, and fill spans on the "exec"/"exec.fill" tracks, plus syscall
    service occupancy on "syscall" — all stamped with the engine's local
    time. Tracing only observes; timing is unchanged. *)

val start : t -> fuel:int -> on_finish:(outcome -> unit) -> unit
(** Begin execution at the program entry. [fuel] bounds retired guest
    instructions. [on_finish] fires (as an event) exactly once. *)

val local_time : t -> int
(** The engine's cycle counter (total executed cycles). *)

val abort : t -> string -> unit
(** Terminate the run with [Fault msg] as a clean outcome (no exception).
    Used for unrecoverable tile failures and watchdog stalls; a no-op if
    the run already finished. *)

val finished : t -> bool

val inject :
  t -> Fault.event -> [ `Applied | `Absorbed | `Unrecoverable of string ]
(** Apply one fault at an ["exec"] or ["syscall"] site. [Slow] degrades
    the syscall proxy; its fail-stop or a dropped request is
    [`Unrecoverable "syscall"]. [Corrupt_storage] at exec flips the
    stored sum of a resident L1 code entry, detected at the block's next
    entry (corrupt code is never executed); [`Absorbed] when the L1 is
    empty. Any other exec fault is [`Unrecoverable "execution"]; other
    corruption is [`Absorbed].
    @raise Invalid_argument for any other role. *)

val guest_instructions : t -> int
val output : t -> string
val digest : t -> int
(** Comparable with {!Vat_guest.Interp.digest}. *)

val capture : t -> string
(** Checkpoint section payload: registers, memory/scratch digests,
    scoreboard and wait state, fuel, retirement count, OS-world state,
    L1 code/data digests, syscall-service scalars. Pure observation —
    capturing never perturbs timing. *)
