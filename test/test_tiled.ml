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
    Service.create q ~track:"s" ~serve:(fun () ->
        (10, fun () -> completions := Event_queue.now q :: !completions))
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
  let svc = Service.create q ~track:"s" ~serve:(fun () -> (5, fun () -> incr served)) in
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

let suite =
  [ Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache writeback victim" `Quick test_cache_writeback;
    Alcotest.test_case "cache flush counts dirty" `Quick
      test_cache_flush_counts_dirty;
    Alcotest.test_case "grid latencies" `Quick test_grid_latency;
    Alcotest.test_case "grid indexing" `Quick test_grid_indexing;
    Alcotest.test_case "service serializes" `Quick test_service_serializes;
    Alcotest.test_case "service pause/drain" `Quick test_service_pause_drain ]
  @ [ QCheck_alcotest.to_alcotest prop_cache_capacity ]
