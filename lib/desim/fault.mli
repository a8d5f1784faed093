(** Deterministic fault plans for the simulated fabric.

    A plan is a cycle-ordered schedule of faults against named sites
    (tiles or service centers); it carries the seed it was generated from,
    so a faulty run is replayable bit-for-bit from a single integer. The
    simulator layers above decide what each site name means and how the
    system degrades — this module only describes {e what goes wrong when}.

    Fault taxonomy:
    - {!Fail_stop}: the site dies permanently; queued work is lost and new
      requests are rejected. Callers observe silence, never an exception.
    - {!Drop_requests}: transient — the next [n] requests arriving at the
      site vanish (a lossy network / soft-error model).
    - {!Slow}: the site serves at [1/factor] speed for [cycles] cycles (a
      thermally-throttled or partially-failed tile).
    - {!Corrupt_payload}: soft error in flight — the next [n] messages
      through the site arrive bit-flipped. Integrity machinery (checksums,
      CRCs) must detect them; an unprotected system would consume garbage.
    - {!Corrupt_storage}: soft error at rest — flip bits in one resident
      line of the site's storage (a code-cache block or an L2D cache
      line). Detected by checksum/parity on the next access.
    - {!Duplicate_delivery}: the interconnect redelivers the next [n]
      messages (a retransmission gone wrong); receivers must be
      idempotent. *)

type kind =
  | Fail_stop
  | Drop_requests of int
  | Slow of { factor : int; cycles : int }
  | Corrupt_payload of int
  | Corrupt_storage
  | Duplicate_delivery of int

(** Coarse families of {!kind}, for building restricted fault menus
    (e.g. [vat_run --fault-kinds corrupt-payload,duplicate]). *)
type kind_class =
  | C_fail_stop
  | C_drop
  | C_slow
  | C_corrupt_payload
  | C_corrupt_storage
  | C_duplicate

val class_of_kind : kind -> kind_class
val class_to_string : kind_class -> string
val class_of_string : string -> kind_class option

val all_classes : kind_class list

val legacy_classes : kind_class list
(** Fail-stop, drop, slow — the pre-corruption taxonomy, and the default
    menu contents (so plans drawn before the corruption kinds existed
    replay unchanged). *)

val corruption_classes : kind_class list
(** Corrupt-payload, corrupt-storage, duplicate. *)

type site = { role : string; index : int }
(** E.g. [{role = "translator"; index = 3}] or [{role = "manager"; index = 0}]. *)

type event = { at : int; site : site; kind : kind }
(** [at] is the injection cycle (event-queue time). *)

type plan

val site : ?index:int -> string -> site

val empty : plan
val is_empty : plan -> bool

val make : seed:int -> event list -> plan
(** Explicit plan; events are sorted by cycle (stable). *)

val random :
  seed:int -> horizon:int -> menu:(site * kind array) array -> count:int ->
  plan
(** [count] faults drawn uniformly over the [menu] of (site, allowed
    kinds) at cycles in [1, horizon]. Pure: identical arguments yield the
    identical plan. *)

val seed : plan -> int
val events : plan -> event list

val count_before : plan -> cycle:int -> int
(** Events scheduled strictly before [cycle] — the fault-plan cursor at a
    checkpoint boundary (a pure function of the plan, so reference and
    replayed runs agree on it). *)

val salt : event -> int
(** Victim-selection seed for {!Corrupt_storage}: a pure function of the
    event, so a faulty run replays byte-identically. *)

val kind_to_string : kind -> string
val site_to_string : site -> string
val event_to_string : event -> string
val pp : Format.formatter -> plan -> unit
