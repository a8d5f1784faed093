(* Tiled-substrate tests: cache model, grid geometry, service centers. *)

open Vat_desim
open Vat_tiled

let mk_cache ?(size = 1024) ?(ways = 2) ?(line = 32) () =
  Cache.create ~size_bytes:size ~ways ~line_bytes:line

let test_cache_hit_miss () =
  let c = mk_cache () in
  let r1 = Cache.access c ~addr:0x100 ~write:false in
  Alcotest.(check bool) "cold miss" false r1.hit;
  let r2 = Cache.access c ~addr:0x104 ~write:false in
  Alcotest.(check bool) "same line hits" true r2.hit;
  let r3 = Cache.access c ~addr:0x120 ~write:false in
  Alcotest.(check bool) "next line misses" false r3.hit

let test_cache_lru () =
  (* 1 KB, 2-way, 32 B lines -> 16 sets; addresses 0, 512, 1024 share set
     0. After touching 0 and 512, 1024 evicts the LRU (0). *)
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:512 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false); (* refresh 0 *)
  ignore (Cache.access c ~addr:1024 ~write:false); (* evicts 512 *)
  Alcotest.(check bool) "0 survives" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "512 evicted" false (Cache.probe c ~addr:512)

let test_cache_writeback () =
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:512 ~write:false);
  let r = Cache.access c ~addr:1024 ~write:false in
  (* The victim is the dirty line at 0. *)
  Alcotest.(check (option int)) "dirty victim written back" (Some 0) r.writeback

let test_cache_flush_counts_dirty () =
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:64 ~write:true);
  ignore (Cache.access c ~addr:128 ~write:false);
  Alcotest.(check int) "dirty lines" 2 (Cache.dirty_lines c);
  Alcotest.(check int) "flush returns dirty count" 2 (Cache.flush c);
  Alcotest.(check bool) "empty after flush" false (Cache.probe c ~addr:0)

(* Geometries with power-of-two line sizes and set counts, any way
   count, and 32-bit addresses. *)
let prop_cache_index_formulas =
  QCheck.Test.make ~name:"cache: set and tag are the division formulas"
    ~count:500
    QCheck.(
      quad (int_range 0 7) (int_range 0 12) (int_range 1 8)
        (map (fun a -> a land 0xFFFFFFFF) int))
    (fun (lb, sb, ways, addr) ->
      let line = 1 lsl lb and sets = 1 lsl sb in
      let c = mk_cache ~size:(sets * ways * line) ~ways ~line () in
      Cache.set_of c addr = addr / line mod sets
      && Cache.tag_of c addr = addr / line / sets)

let test_cache_refuses_non_pow2 () =
  let refuses what ~size ~ways ~line =
    match mk_cache ~size ~ways ~line () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" what
  in
  refuses "24-byte lines" ~size:(24 * 2 * 16) ~ways:2 ~line:24;
  refuses "3 sets" ~size:(32 * 2 * 3) ~ways:2 ~line:32;
  refuses "12 sets" ~size:(32 * 4 * 12) ~ways:4 ~line:32;
  refuses "size not a multiple" ~size:1000 ~ways:2 ~line:32;
  (* Any way count is fine, powers of two or not. *)
  ignore (mk_cache ~size:(32 * 3 * 16) ~ways:3 ~line:32 ())

let prop_cache_capacity =
  QCheck.Test.make ~name:"cache: working set within capacity always hits"
    ~count:100
    QCheck.(int_range 1 32)
    (fun lines ->
      let c = mk_cache ~size:1024 ~ways:2 ~line:32 () in
      (* 1024/32 = 32 lines of capacity; touch [lines] distinct lines
         twice; sequential addresses spread over sets, so a working set
         within capacity must fully hit on the second pass. *)
      for i = 0 to lines - 1 do
        ignore (Cache.access c ~addr:(i * 32) ~write:false)
      done;
      let hits = ref 0 in
      for i = 0 to lines - 1 do
        if (Cache.access c ~addr:(i * 32) ~write:false).hit then incr hits
      done;
      !hits = lines)

let test_grid_latency () =
  let g = Grid.create () in
  let c x y : Grid.coord = { x; y } in
  Alcotest.(check int) "self" 1 (Grid.message_latency g ~src:(c 0 0) ~dst:(c 0 0));
  Alcotest.(check int) "neighbor" 4 (Grid.message_latency g ~src:(c 0 0) ~dst:(c 1 0));
  Alcotest.(check int) "corner to corner" 9
    (Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 3));
  (* Symmetry. *)
  Alcotest.(check int) "symmetric"
    (Grid.message_latency g ~src:(c 2 1) ~dst:(c 0 3))
    (Grid.message_latency g ~src:(c 0 3) ~dst:(c 2 1))

let test_grid_indexing () =
  let g = Grid.create () in
  for i = 0 to Grid.tiles g - 1 do
    Alcotest.(check int) "index round trip" i
      (Grid.tile_index g (Grid.coord_of_index g i))
  done

let test_service_serializes () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc =
    Service.create q ~track:"s" ~serve:(fun () -> 10) ~complete:(fun () ->
        completions := Event_queue.now q :: !completions)
  in
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  Event_queue.run q;
  Alcotest.(check (list int)) "one at a time" [ 10; 20; 30 ]
    (List.rev !completions);
  Alcotest.(check int) "busy cycles" 30 (Service.busy_cycles svc);
  Alcotest.(check int) "served" 3 (Service.served svc)

let test_service_pause_drain () =
  let q = Event_queue.create () in
  let served = ref 0 in
  let svc =
    Service.create q ~track:"s" ~serve:(fun () -> 5) ~complete:(fun () ->
        incr served)
  in
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  (* Pause after the first dispatch; drain should fire once in-service
     work completes even though the queue still holds a request. *)
  Event_queue.schedule q ~at:1 (fun () -> Service.set_paused svc true);
  let drained_at = ref (-1) in
  Event_queue.schedule q ~at:2 (fun () ->
      Service.drain_then svc (fun () -> drained_at := Event_queue.now q));
  Event_queue.run_until q ~limit:100;
  Alcotest.(check int) "only first served" 1 !served;
  Alcotest.(check int) "drained when in-flight done" 5 !drained_at;
  Service.set_paused svc false;
  Event_queue.run q;
  Alcotest.(check int) "resumed" 2 !served

(* A request with an identity: the tests below check that [complete]
   gets the very record [serve] got, not a copy. *)
type req = { id : int }

let ids reqs = List.rev_map (fun r -> r.id) reqs

let test_service_fifo_through_growth () =
  (* Five requests fill part of the ring; once two are served the head
     has moved, so the next pushes wrap round the end of the ring, and
     thirty in all force it to grow twice past its initial 8 slots while
     wrapped. *)
  let q = Event_queue.create () in
  let done_ = ref [] in
  let svc =
    Service.create q ~track:"s" ~serve:(fun _ -> 10) ~complete:(fun r ->
        done_ := r :: !done_)
  in
  for id = 0 to 4 do
    Service.submit svc ~delay:0 { id }
  done;
  Event_queue.schedule q ~at:25 (fun () -> Service.set_paused svc true);
  Event_queue.schedule q ~at:26 (fun () ->
      for id = 5 to 29 do
        Service.submit svc ~delay:0 { id }
      done);
  Event_queue.run_until q ~limit:100;
  Alcotest.(check (list int)) "paused after the third" [ 0; 1; 2 ] (ids !done_);
  Alcotest.(check int) "all the rest queued" 27 (Service.queue_length svc);
  Service.set_paused svc false;
  Event_queue.run q;
  Alcotest.(check (list int)) "arrival order" (List.init 30 Fun.id)
    (ids !done_);
  Alcotest.(check int) "served" 30 (Service.served svc);
  Alcotest.(check int) "empty" 0 (Service.queue_length svc)

let test_service_fail_orphans_after_wrap () =
  (* Requests 0-5 arrive at once; at cycle 45 request 4 is in service
     and 6-11 arrive, wrapping round the ring's 8 slots without filling
     it past them. *)
  let q = Event_queue.create () in
  let done_ = ref [] in
  let svc =
    Service.create q ~track:"s" ~serve:(fun _ -> 10) ~complete:(fun r ->
        done_ := r :: !done_)
  in
  for id = 0 to 5 do
    Service.submit svc ~delay:0 { id }
  done;
  Event_queue.schedule q ~at:45 (fun () ->
      for id = 6 to 11 do
        Service.submit svc ~delay:0 { id }
      done);
  let orphans = ref [] in
  Event_queue.schedule q ~at:46 (fun () -> orphans := Service.fail svc);
  Event_queue.run q;
  Alcotest.(check (list int)) "orphans in submission order"
    [ 5; 6; 7; 8; 9; 10; 11 ]
    (List.map (fun r -> r.id) !orphans);
  Alcotest.(check (list int)) "completed before the failure" [ 0; 1; 2; 3 ]
    (ids !done_);
  (* Seven orphans and request 4, abandoned in service. *)
  Alcotest.(check int) "dropped" 8 (Service.dropped svc)

let test_service_duplicate_same_request () =
  let q = Event_queue.create () in
  let done_ = ref [] in
  let svc =
    Service.create q ~track:"s" ~serve:(fun _ -> 10) ~complete:(fun r ->
        done_ := r :: !done_)
  in
  let a = { id = 1 } and b = { id = 2 } in
  Service.inject svc (Fault.Duplicate_delivery 1);
  Service.submit svc ~delay:0 a;
  Service.submit svc ~delay:1 b;
  Event_queue.run q;
  match List.rev !done_ with
  | [ x; y; z ] ->
    Alcotest.(check bool) "the first request, completed twice" true
      (x == a && y == a);
    Alcotest.(check bool) "then the second" true (z == b)
  | l -> Alcotest.failf "expected three completions, got %d" (List.length l)

let test_service_complete_gets_served_request () =
  (* Under a slow-down the occupancy [serve] returns is multiplied, but
     [complete] still runs once per request, with the record [serve]
     saw, after the scaled occupancy. *)
  let q = Event_queue.create () in
  let in_service = ref None and mismatches = ref 0 and done_at = ref [] in
  let svc =
    Service.create q ~track:"s"
      ~serve:(fun r ->
        in_service := Some r;
        5 + r.id)
      ~complete:(fun r ->
        (match !in_service with
         | Some s when s == r -> ()
         | _ -> incr mismatches);
        in_service := None;
        done_at := (r.id, Event_queue.now q) :: !done_at)
  in
  Service.inject svc (Fault.Slow { factor = 3; cycles = 20 });
  List.iter
    (fun (id, delay) -> Service.submit svc ~delay { id })
    [ (1, 0); (2, 0); (3, 10); (4, 40) ];
  Event_queue.run q;
  Alcotest.(check int) "complete got what serve got" 0 !mismatches;
  (* 1 starts at 0 (18 cycles, slowed), 2 at 18 (21, slowed), 3 at 39
     (8, nominal again), 4 at 47 (9). *)
  Alcotest.(check (list (pair int int))) "completion times"
    [ (1, 18); (2, 39); (3, 47); (4, 56) ]
    (List.rev !done_at)

let suite =
  [ Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache writeback victim" `Quick test_cache_writeback;
    Alcotest.test_case "cache flush counts dirty" `Quick
      test_cache_flush_counts_dirty;
    Alcotest.test_case "cache refuses non-power-of-two geometry" `Quick
      test_cache_refuses_non_pow2;
    Alcotest.test_case "grid latencies" `Quick test_grid_latency;
    Alcotest.test_case "grid indexing" `Quick test_grid_indexing;
    Alcotest.test_case "service serializes" `Quick test_service_serializes;
    Alcotest.test_case "service pause/drain" `Quick test_service_pause_drain;
    Alcotest.test_case "service FIFO through ring growth and wrap" `Quick
      test_service_fifo_through_growth;
    Alcotest.test_case "service fail: orphans in order after a wrap" `Quick
      test_service_fail_orphans_after_wrap;
    Alcotest.test_case "service duplicate completes the same request" `Quick
      test_service_duplicate_same_request;
    Alcotest.test_case "service complete gets the served request" `Quick
      test_service_complete_gets_served_request ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_cache_capacity; prop_cache_index_formulas ]
