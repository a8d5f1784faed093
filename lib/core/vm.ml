open Vat_desim
open Vat_guest
open Vat_tiled
module Tr = Vat_trace.Trace
module Snap = Vat_snapshot.Snapshot

type result = {
  outcome : Exec.outcome;
  cycles : int;
  guest_insns : int;
  output : string;
  digest : int;
  stats : Stats.t;
}

type instance = {
  i_manager : Manager.t;
  i_exec : Exec.t;
  i_memsys : Memsys.t;
  i_layout : Layout.t;
}

(* ------------------------------------------------------------------ *)
(* Rollback-recovery bookkeeping                                       *)
(* ------------------------------------------------------------------ *)

(* One previously-terminal fault survived by rollback: the cycle it fired
   at, the site it hit, the fault kind (so exactly that event — and no
   other — is masked on replay), and the checkpoint cycle the recovery
   replayed from. The ledger of these entries travels inside every
   snapshot, which is what makes a resumed run converge on the same
   recovery decisions as the uninterrupted one. *)
type ledger_entry = {
  le_at : int;
  le_role : string;
  le_index : int;
  le_kind : string; (* "" for a parity loss detected at the bank *)
  le_restore : int;
}

let create ?input ?memo ?trace q stats cfg prog =
  let layout = Layout.create (Grid.create ()) in
  let manager =
    Manager.create ?memo ?trace q stats cfg layout
      ~fetch:(Mem.read_u8 prog.Program.mem)
      ~page_gen:(fun ~page -> Mem.page_generation prog.Program.mem ~page)
  in
  let memsys =
    Memsys.create ?trace q stats cfg layout ~page_table:prog.Program.page_table
  in
  let exec =
    Exec.create q stats cfg layout prog ~manager ~memsys ?input ?trace ()
  in
  (* An uncorrectable parity error (corrupt dirty L2D line: the only copy
     of the data is gone) must end the run as a clean fault, never return
     a silent wrong value. *)
  Memsys.set_fatal_handler memsys (fun ~bank:_ msg ->
      Stats.incr stats "corrupt.uncorrectable_aborts";
      Exec.abort exec msg);
  { i_manager = manager; i_exec = exec; i_memsys = memsys; i_layout = layout }

let start t ~fuel ~on_finish = Exec.start t.i_exec ~fuel ~on_finish
let manager_of t = t.i_manager
let exec_of t = t.i_exec
let memsys_of t = t.i_memsys

(* ------------------------------------------------------------------ *)
(* One simulation attempt                                              *)
(* ------------------------------------------------------------------ *)

(* What every attempt of one [run] shares. *)
type setup = {
  cfg : Config.t;
  prog : Program.t;
  input : string option;
  memo : Translate.Memo.t option;
  fuel : int;
  max_cycles : int;
  faults : Fault.plan;
  trace : Tr.t;
  fp : int; (* the snapshot fingerprint *)
  interval : int option; (* checkpoint interval: arms rollback *)
  on_checkpoint : (Snap.t -> unit) option;
  restore_from : Snap.t option;
}

(* One machine simulated from cycle 0 under a fixed recovery ledger:
   every ledgered terminal fault is masked (matched by kind) or, for an
   L2D parity loss, defanged by its bank's quarantine, applied at the
   entry's restore cycle. *)
type attempt = {
  s : setup;
  inst : instance;
  q : Event_queue.t;
  stats : Stats.t;
  morph : Morph.t;
  ledger : ledger_entry list;
  (* The first terminal fault, if any: its ledger entry and the outcome
     message formed where it struck (the run ends with it on give-up). *)
  mutable terminal : (ledger_entry * string) option;
  mutable last_cp : int; (* cycle of the latest checkpoint *)
}

let rollback a = Option.is_some a.s.interval

(* Every terminal fault ends here. With rollback armed it is recorded,
   not fatal: the ledger entry is formed where the fault strikes, the
   drive loop stops the attempt, and the rollback loop replays from the
   last checkpoint with the event masked and the site quarantined.
   Otherwise [stat] counts it and the run aborts with [msg]. *)
let terminal a ~stat ~role ~index ~kind msg =
  if not (rollback a) then begin
    Stats.incr a.stats stat;
    Exec.abort a.inst.i_exec msg
  end
  else if Option.is_none a.terminal then
    a.terminal <-
      Some
        ( { le_at = Event_queue.now a.q; le_role = role; le_index = index;
            le_kind = kind; le_restore = a.last_cp },
          msg )

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

(* [classes] filters each site's candidate kinds; the default (the three
   legacy classes) provably reproduces the pre-corruption menu site for
   site, so existing plans and the committed degradation curves replay
   byte-identically. A site whose filtered kind list is empty is dropped. *)
let fault_menu ?(recoverable_only = true) ?(classes = Fault.legacy_classes) cfg =
  let menu = ref [] in
  let add role index kinds =
    let kinds =
      List.filter (fun k -> List.mem (Fault.class_of_kind k) classes) kinds
    in
    if kinds <> [] then
      menu := ({ Fault.role; index }, Array.of_list kinds) :: !menu
  in
  let fs = Fault.Fail_stop in
  let drop = Fault.Drop_requests 4 in
  let slow = Fault.Slow { factor = 4; cycles = 20_000 } in
  let cp = Fault.Corrupt_payload 3 in
  let cs = Fault.Corrupt_storage in
  let dup = Fault.Duplicate_delivery 2 in
  for i = 0 to cfg.Config.n_translators - 1 do
    add "translator" i [ fs; slow ]
  done;
  for i = 0 to min 4 cfg.Config.n_l2d_banks - 1 do
    add "l2d" i [ fs; drop; slow; cp; cs; dup ]
  done;
  for i = 0 to cfg.Config.n_l15_banks - 1 do
    add "l15" i [ fs; drop; slow; cp; cs; dup ]
  done;
  add "manager" 0 [ drop; slow; cp; cs; dup ];
  add "mmu" 0 [ drop; slow; cp; dup ];
  add "syscall" 0 [ slow ];
  (* Only corruption makes sense here: the execution tile's own L1 code
     store can take a soft error (fail-stop exec is unrecoverable and
     listed below). Empty — hence absent — under the legacy classes. *)
  add "exec" 0 [ cs ];
  if not recoverable_only then begin
    add "exec" 0 [ fs ];
    add "manager" 0 [ fs ];
    add "mmu" 0 [ fs ]
  end;
  Array.of_list (List.rev !menu)

(* Each component decides what a fault does at the sites it owns; the
   VM only routes by role and acts on the answer. *)
let apply_fault a (e : Fault.event) =
  Stats.incr a.stats "fault.injected";
  (match Fault.class_of_kind e.kind with
   | Fault.C_corrupt_payload | Fault.C_corrupt_storage | Fault.C_duplicate ->
     Stats.incr a.stats "corrupt.injected"
   | Fault.C_fail_stop | Fault.C_drop | Fault.C_slow -> ());
  let applied =
    match e.site.role with
    | "translator" | "l15" | "manager" -> Manager.inject a.inst.i_manager e
    | "l2d" | "mmu" -> Memsys.inject a.inst.i_memsys ~rollback:(rollback a) e
    | "exec" | "syscall" -> Exec.inject a.inst.i_exec e
    | role -> invalid_arg ("Vm.apply_fault: unknown fault site " ^ role)
  in
  match applied with
  | `Applied -> ()
  | `Absorbed ->
    (* Corruption that hit no resident line or message stream. All other
       corruption is recoverable: checksums, acks and parity turn it into
       retries and refetches, never into silently wrong guest state. *)
    Stats.incr a.stats "corrupt.absorbed"
  | `Unrecoverable what ->
    terminal a ~stat:"fault.unrecoverable" ~role:e.site.role
      ~index:e.site.index ~kind:(Fault.kind_to_string e.kind)
      (Printf.sprintf "unrecoverable fault: %s tile failed" what)

let fault_class_code k =
  match Fault.class_of_kind k with
  | Fault.C_fail_stop -> 0
  | Fault.C_drop -> 1
  | Fault.C_slow -> 2
  | Fault.C_corrupt_payload -> 3
  | Fault.C_corrupt_storage -> 4
  | Fault.C_duplicate -> 5

(* A ledgered terminal fault: already survived by a rollback, so the
   replay masks exactly that event (the virtual architecture re-placed the
   role; the original event becomes a non-event). An L2D parity entry has
   kind "", which matches no event: quarantining the bank at the restore
   point flushes the poisoned line, so the re-injected storage corruption
   lands on dead (or refilled-clean) silicon and needs no masking. *)
let masked ledger (e : Fault.event) =
  let kind = Fault.kind_to_string e.kind in
  List.exists
    (fun le ->
      le.le_at = e.at
      && le.le_role = e.site.role
      && le.le_index = e.site.index
      && le.le_kind = kind)
    ledger

let schedule_faults a ~fault_emit =
  List.iter
    (fun (e : Fault.event) ->
      Event_queue.schedule a.q ~at:e.at (fun () ->
          if not (Exec.finished a.inst.i_exec) then begin
            Tr.emit fault_emit ~cycle:e.at ~arg:(fault_class_code e.kind);
            if masked a.ledger e then begin
              (* The particle still hits, but the role has been re-placed
                 away from the quarantined tile, so nothing dies. *)
              Stats.incr a.stats "fault.injected";
              Stats.incr a.stats "recovery.masked_faults"
            end
            else apply_fault a e
          end))
    (Fault.events a.s.faults)

(* Forward-progress watchdog: with faults in play, an unanticipated hang
   (a reply lost on a path without a deadline) must surface as a clean
   diagnostic abort, never as a silent infinite simulation. *)
let start_watchdog exec stats q ~stall_cycles =
  let interval = max 1 (stall_cycles / 4) in
  let last_insns = ref (-1) in
  let last_progress = ref 0 in
  let rec watch () =
    if not (Exec.finished exec) then begin
      let gi = Exec.guest_instructions exec in
      let now = Event_queue.now q in
      if gi <> !last_insns then begin
        last_insns := gi;
        last_progress := now
      end;
      if now - !last_progress >= stall_cycles then begin
        Stats.incr stats "fault.watchdog_aborts";
        Exec.abort exec
          (Printf.sprintf
             "watchdog: no guest instruction retired for %d cycles (stall \
              limit %d)"
             (now - !last_progress) stall_cycles)
      end
      else Event_queue.after q ~delay:interval watch
    end
  in
  Event_queue.after q ~delay:interval watch

(* ------------------------------------------------------------------ *)
(* Machine build                                                       *)
(* ------------------------------------------------------------------ *)

(* Decimated queue-depth sampler. It observes from the event-queue probe
   and schedules nothing, so the traced run replays the exact event
   sequence of the untraced one. *)
let install_sampler trace q manager memsys =
  let gauge name = Tr.emitter trace ~track:(Tr.track trace name) Tr.Queue_depth in
  let d_trans = gauge "translate-queue" in
  let d_mgr = gauge "mgr-queue" in
  let d_l2d = gauge "l2d-queue" in
  let d_events = gauge "events" in
  let next = ref 0 in
  Event_queue.set_probe q (fun ~now ~pending ->
      if now >= !next then begin
        next := now + Config.sample_interval;
        Tr.emit d_trans ~cycle:now ~arg:(Manager.queue_length manager);
        Tr.emit d_mgr ~cycle:now ~arg:(Manager.mgr_queue_length manager);
        Tr.emit d_l2d ~cycle:now ~arg:(Memsys.bank_queue_total memsys);
        Tr.emit d_events ~cycle:now ~arg:pending
      end)

let apply_quarantine a le =
  Stats.incr a.stats "recovery.quarantines";
  let layout = a.inst.i_layout in
  let grid = Layout.grid layout in
  match le.le_role with
  | "l2d" -> Memsys.recovery_retire_bank a.inst.i_memsys le.le_index
  | "manager" -> Grid.fail_tile grid (Layout.manager layout)
  | "mmu" -> Grid.fail_tile grid (Layout.mmu layout)
  | "exec" -> Grid.fail_tile grid (Layout.exec layout)
  | "syscall" -> Grid.fail_tile grid (Layout.syscall layout)
  | role -> invalid_arg ("Vm.run: unknown quarantine role " ^ role)

let build s ~ledger =
  let q = Event_queue.create () in
  let stats = Stats.create () in
  let cfg = s.cfg and trace = s.trace in
  (* Each attempt runs against a pristine program image. Guest stores
     mutate the image in place, so replaying an abandoned attempt's
     program from cycle 0 would read its leftover writes and diverge. *)
  let inst =
    create ?input:s.input ?memo:s.memo ~trace q stats cfg (Program.clone s.prog)
  in
  let morph = Morph.create ~trace q stats cfg inst.i_manager inst.i_memsys in
  let a =
    { s; inst; q; stats; morph; ledger; terminal = None; last_cp = 0 }
  in
  (* Losing the only copy of a dirty L2D line is terminal; under rollback
     it is survivable, by restoring the last checkpoint with the bank
     quarantined. *)
  Memsys.set_fatal_handler inst.i_memsys (fun ~bank msg ->
      terminal a ~stat:"corrupt.uncorrectable_aborts" ~role:"l2d"
        ~index:bank ~kind:"" msg);
  if Tr.enabled trace then
    install_sampler trace q inst.i_manager inst.i_memsys;
  let fault_emit =
    Tr.emitter trace ~track:(Tr.track trace "faults") Tr.Fault_inject
  in
  schedule_faults a ~fault_emit;
  if cfg.Config.fault_tolerance then
    start_watchdog inst.i_exec stats q
      ~stall_cycles:cfg.Config.watchdog_stall_cycles;
  (* Rollbacks that restored to cycle 0 (the fault fired before the
     first checkpoint): their quarantines belong at machine bring-up. *)
  List.iter (fun le -> if le.le_restore = 0 then apply_quarantine a le) ledger;
  a

(* ------------------------------------------------------------------ *)
(* Checkpoint / rollback-recovery                                      *)
(* ------------------------------------------------------------------ *)

(* Binds a snapshot to one specific run: same configuration, program
   image, input, limits and fault plan, or restore refuses up front
   (replaying someone else's checkpoint can only produce garbage). *)
let fingerprint ~input ~fuel ~max_cycles cfg (prog : Program.t) plan =
  let h = ref 0x811c9dc5 in
  let add v = h := (((!h lxor v) * 0x100000001b3) + 1) land max_int in
  add (Snap.crc32 (Marshal.to_string cfg []));
  add (Mem.checksum prog.mem);
  add prog.entry;
  add prog.initial_esp;
  add prog.brk0;
  Array.iter add prog.page_table;
  add (Snap.crc32 input);
  add fuel;
  add max_cycles;
  add (Fault.seed plan);
  add
    (Snap.crc32
       (String.concat ";" (List.map Fault.event_to_string (Fault.events plan))));
  !h

let encode_ledger ledger =
  let b = Snap.Wr.create () in
  Snap.Wr.int b (List.length ledger);
  List.iter
    (fun le ->
      Snap.Wr.int b le.le_at;
      Snap.Wr.string b le.le_role;
      Snap.Wr.int b le.le_index;
      Snap.Wr.string b le.le_kind;
      Snap.Wr.int b le.le_restore)
    ledger;
  Snap.Wr.contents b

let decode_ledger s =
  let r = Snap.Rd.of_string s in
  List.init (Snap.Rd.int r) (fun _ ->
      let le_at = Snap.Rd.int r in
      let le_role = Snap.Rd.string r in
      let le_index = Snap.Rd.int r in
      let le_kind = Snap.Rd.string r in
      let le_restore = Snap.Rd.int r in
      { le_at; le_role; le_index; le_kind; le_restore })

let capture a ~every now =
  let ints l =
    let b = Snap.Wr.create () in
    Snap.Wr.int_list b l;
    Snap.Wr.contents b
  in
  let sched =
    let b = Snap.Wr.create () in
    Snap.Wr.int b now;
    Snap.Wr.int b (Event_queue.next_seq a.q);
    Snap.Wr.int b (Event_queue.pending a.q);
    Snap.Wr.int b (Grid.failed_tiles (Layout.grid a.inst.i_layout));
    Snap.Wr.contents b
  in
  let stats_s =
    let b = Snap.Wr.create () in
    let al = Stats.to_alist a.stats in
    Snap.Wr.int b (List.length al);
    List.iter
      (fun (k, v) ->
        Snap.Wr.string b k;
        Snap.Wr.int b v)
      al;
    Snap.Wr.contents b
  in
  let trace = a.s.trace in
  Snap.v ~cycle:now ~fingerprint:a.s.fp ~interval:every
    ~sections:
      [ ("sched", sched);
        ("exec", Exec.capture a.inst.i_exec);
        ("mgr", Manager.capture a.inst.i_manager);
        ("l2d", Memsys.capture a.inst.i_memsys);
        ("morph", ints (Morph.capture a.morph));
        ("fault", ints [ Fault.count_before a.s.faults ~cycle:now ]);
        ("stats", stats_s);
        ("recovery", encode_ledger a.ledger);
        (* Trace counters are observational high-water marks, not
           replayed machine state: excluded from restore verification
           (any section named "trace*" is). *)
        ("trace.hwm",
         ints
           [ Tr.length trace; Tr.total trace; Tr.dropped trace;
             Tr.max_cycle trace ]) ]

(* The replay has reached the cycle the snapshot was taken at: every
   machine section must match byte for byte, or the restore is not a
   restore. The recovery ledger is provenance, not machine state: a
   resumed run that rolls back again before this cycle re-verifies under
   a longer ledger than the snapshot recorded, with an identical
   machine. *)
let verify_restore ref_snap snap =
  let diverging =
    List.filter
      (fun name ->
        name <> "recovery"
        && not (String.length name >= 5 && String.sub name 0 5 = "trace"))
      (Snap.diff ref_snap snap)
  in
  if diverging <> [] then
    failwith
      (Printf.sprintf
         "Vm.run: restore verification failed at cycle %d; diverging \
          sections: %s"
         (Snap.cycle snap)
         (String.concat ", " diverging))

let start_checkpoints a ~every =
  (* Checkpoints at or past the frontier are new ground: only those are
     handed to [on_checkpoint]. Everything earlier is replay of cycles a
     previous attempt (or the halted original process) already owned. *)
  let frontier =
    List.fold_left
      (fun acc le -> max acc le.le_restore)
      (match a.s.restore_from with Some s -> Snap.cycle s | None -> 0)
      a.ledger
  in
  let rec chain at =
    Event_queue.schedule a.q ~at (fun () ->
        if not (Exec.finished a.inst.i_exec || Option.is_some a.terminal)
        then begin
          let snap = capture a ~every at in
          (match a.s.restore_from with
           | Some ref_snap when Snap.cycle ref_snap = at ->
             verify_restore ref_snap snap
           | _ -> ());
          if at >= frontier then Option.iter (fun f -> f snap) a.s.on_checkpoint;
          a.last_cp <- at;
          List.iter
            (fun le -> if le.le_restore = at then apply_quarantine a le)
            a.ledger;
          (* Reschedule only while the machine still has work in flight,
             so a genuine deadlock is still detected as one (an
             unconditional chain would tick on to max_cycles). *)
          if Event_queue.pending a.q > 0 then chain (at + every)
        end)
  in
  chain every

let finalize a outcome =
  let stats = a.stats and exec = a.inst.i_exec in
  let cycles = max (Event_queue.now a.q) (Exec.local_time exec) in
  Stats.add stats "total.cycles" cycles;
  Stats.add stats "total.guest_insns" (Exec.guest_instructions exec);
  Stats.add stats "morph.count" (Morph.morphs a.morph);
  (* Service-queue high-water marks (tracked unconditionally; see
     Service.record_totals) — the congestion signature behind the
     paper's Figure 5 without needing a full trace — and fault totals. *)
  Manager.record_totals a.inst.i_manager;
  Memsys.record_totals a.inst.i_memsys;
  Stats.add stats "fault.failed_tiles"
    (Grid.failed_tiles (Layout.grid a.inst.i_layout));
  { outcome;
    cycles;
    guest_insns = Exec.guest_instructions exec;
    output = Exec.output exec;
    digest = Exec.digest exec;
    stats }

type attempt_end =
  | Done of result
  | Terminal of (ledger_entry * string) * attempt

let attempt s ~ledger =
  let a = build s ~ledger in
  Option.iter (fun every -> start_checkpoints a ~every) s.interval;
  let outcome = ref None in
  Exec.start a.inst.i_exec ~fuel:s.fuel ~on_finish:(fun o -> outcome := Some o);
  let fault msg = Done (finalize a (Exec.Fault msg)) in
  match
    Event_queue.drive a.q ~max_cycles:s.max_cycles ~finished:(fun () ->
        Option.is_some !outcome || Option.is_some a.terminal)
  with
  | Cycle_limit -> fault "simulation cycle limit exceeded"
  | Deadlock -> fault "simulation deadlock: no events"
  | Finished -> (
    (* A guest that finished wins over a terminal fault in the same step. *)
    match !outcome with
    | Some o -> Done (finalize a o)
    | None -> Terminal (Option.get a.terminal, a))

let add_recovery_stats ledger (res : result) =
  (* Only after a real rollback: a fault-free (or fully recovered-by-
     other-means) run keeps a stats table identical to a run with
     checkpointing off. *)
  if ledger <> [] then begin
    Stats.add res.stats "recovery.rollbacks" (List.length ledger);
    Stats.add res.stats "recovery.replayed_cycles"
      (List.fold_left (fun acc le -> acc + (le.le_at - le.le_restore)) 0 ledger)
  end;
  res

(* Attempt after attempt, each under a ledger one terminal longer, until
   a run ends or [max_rollbacks] rollbacks are spent; then the last
   terminal's own message is the outcome. *)
let rec recover s ~max_rollbacks ~ledger ~attempts =
  match attempt s ~ledger with
  | Done res -> add_recovery_stats ledger res
  | Terminal ((_, msg), a) when attempts >= max_rollbacks ->
    Stats.incr a.stats "fault.unrecoverable";
    add_recovery_stats ledger (finalize a (Exec.Fault msg))
  | Terminal ((le, _), _) ->
    recover s ~max_rollbacks ~ledger:(ledger @ [ le ]) ~attempts:(attempts + 1)

let run ?input ?memo ?(fuel = 50_000_000) ?(max_cycles = 2_000_000_000)
    ?(faults = Fault.empty) ?(trace = Tr.disabled) ?checkpoint_every
    ?on_checkpoint ?restore_from ?(max_rollbacks = 64) cfg prog =
  (match Config.validate cfg with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Vm.run: " ^ msg));
  (match checkpoint_every with
   | Some n when n <= 0 -> invalid_arg "Vm.run: checkpoint_every must be positive"
   | _ -> ());
  let cfg =
    if Fault.is_empty faults || cfg.Config.fault_tolerance then cfg
    else { cfg with Config.fault_tolerance = true }
  in
  let fp =
    fingerprint ~input:(Option.value input ~default:"") ~fuel ~max_cycles cfg
      prog faults
  in
  (match restore_from with
   | Some s when Snap.fingerprint s <> fp ->
     invalid_arg
       "Vm.run: snapshot fingerprint mismatch (different configuration, \
        program, input, limits or fault plan)"
   | _ -> ());
  (* Restore ignores the caller's interval: the replayed checkpoint chain
     must land on exactly the cycles the original run checkpointed at. *)
  let interval =
    match restore_from with
    | Some s -> Some (Snap.interval s)
    | None -> checkpoint_every
  in
  let ledger =
    match Option.bind restore_from (fun s -> Snap.find s "recovery") with
    | Some payload -> decode_ledger payload
    | None -> []
  in
  let s =
    { cfg; prog; input; memo; fuel; max_cycles; faults; trace; fp; interval;
      on_checkpoint; restore_from }
  in
  recover s ~max_rollbacks ~ledger ~attempts:0

let slowdown result ~piii_cycles =
  if piii_cycles <= 0 then infinity
  else float_of_int result.cycles /. float_of_int piii_cycles
