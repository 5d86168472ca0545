(* Tests for sdt_par: pool determinism (results and exceptions are
   independent of the jobs count and of scheduling), value identity of
   memo keys (any single field of a random architecture or
   configuration changes the key; equal values get equal keys), and the
   single-flight in-process memo. *)

module Pool = Sdt_par.Pool
module Fingerprint = Sdt_par.Fingerprint
module Memo = Sdt_par.Memo
module Telemetry = Sdt_par.Telemetry
module Registry = Sdt_observe.Registry
module Jsonw = Sdt_observe.Jsonw
module Arch = Sdt_march.Arch
module Config = Sdt_core.Config

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let jobs_under_test = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_map_matches_serial () =
  let input = Array.init 100 (fun i -> i) in
  let f x = (x * x) + (x mod 7) in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got = Pool.map pool f input in
          check bool
            (Printf.sprintf "jobs=%d matches Array.map" jobs)
            true
            (got = expected)))
    jobs_under_test

let test_map_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check bool "empty" true (Pool.map pool succ [||] = [||]);
          check bool "singleton" true (Pool.map pool succ [| 41 |] = [| 42 |])))
    jobs_under_test

let test_iter_visits_each_index_once () =
  let n = 257 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          (* each task writes only its own slot, so no synchronisation
             is needed to observe the result *)
          let seen = Array.make n 0 in
          Pool.iter pool (fun i -> seen.(i) <- seen.(i) + 1)
            (Array.init n (fun i -> i));
          check bool
            (Printf.sprintf "jobs=%d all once" jobs)
            true
            (Array.for_all (fun c -> c = 1) seen)))
    jobs_under_test

let test_lowest_index_exception () =
  (* several tasks raise; the re-raised exception must be the one from
     the lowest index, whatever the scheduling *)
  let f i = if i mod 13 = 5 then failwith (Printf.sprintf "idx%d" i) else i in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match Pool.map pool f (Array.init 100 (fun i -> i)) with
          | _ -> Alcotest.fail "expected an exception"
          | exception Failure msg ->
              check string
                (Printf.sprintf "jobs=%d lowest index wins" jobs)
                "idx5" msg))
    jobs_under_test

let test_pool_reusable_after_failure () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool (fun _ -> failwith "boom") [| 0; 1 |] with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      check bool "next batch fine" true
        (Pool.map pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |]))

let test_with_pool_returns_and_jobs () =
  let v = Pool.with_pool ~jobs:3 (fun pool -> Pool.jobs pool * 7) in
  check int "with_pool passes the result out" 21 v;
  Pool.with_pool ~jobs:0 (fun pool ->
      check int "jobs <= 1 is serial" 1 (Pool.jobs pool));
  check bool "default_jobs positive" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Fingerprint *)

(* Single-field mutators: each returns its input with exactly that
   field changed. Random values are built from the presets by applying
   a few of them; a property then changes one more field. *)

let bump r v = v + 1 + (r mod 997)

(* a value from [choices] other than [v] *)
let other r choices v =
  let rest = List.filter (fun c -> c <> v) choices in
  List.nth rest (r mod List.length rest)

let cache_field r (c : Sdt_march.Cache.config option) =
  match c with
  | None ->
      Some
        {
          Sdt_march.Cache.size_bytes = 4096;
          line_bytes = 32;
          assoc = 2;
          miss_penalty = r mod 40;
        }
  | Some c -> (
      match r mod 5 with
      | 0 -> None
      | 1 -> Some { c with size_bytes = bump r c.size_bytes }
      | 2 -> Some { c with line_bytes = bump r c.line_bytes }
      | 3 -> Some { c with assoc = bump r c.assoc }
      | _ -> Some { c with miss_penalty = bump r c.miss_penalty })

let arch_fields : (int -> Arch.t -> Arch.t) list =
  Arch.
    [
      (fun r a -> { a with name = a.name ^ string_of_int r });
      (fun r a -> { a with alu_cycles = bump r a.alu_cycles });
      (fun r a -> { a with mul_cycles = bump r a.mul_cycles });
      (fun r a -> { a with div_cycles = bump r a.div_cycles });
      (fun r a -> { a with mem_cycles = bump r a.mem_cycles });
      (fun r a -> { a with branch_cycles = bump r a.branch_cycles });
      (fun r a -> { a with syscall_cycles = bump r a.syscall_cycles });
      (fun r a -> { a with icache = cache_field r a.icache });
      (fun r a -> { a with dcache = cache_field r a.dcache });
      (fun r a -> { a with cond_bits = bump r a.cond_bits });
      (fun r a -> { a with cond_mispredict = bump r a.cond_mispredict });
      (fun r a -> { a with btb_entries = bump r a.btb_entries });
      (fun r a ->
        { a with indirect_mispredict = bump r a.indirect_mispredict });
      (fun r a -> { a with indirect_fixed = bump r a.indirect_fixed });
      (fun r a -> { a with ras_depth = bump r a.ras_depth });
      (fun r a -> { a with ras_mispredict = bump r a.ras_mispredict });
      (fun r a -> { a with trap_cycles = bump r a.trap_cycles });
      (fun r a ->
        { a with translate_per_inst = bump r a.translate_per_inst });
      (fun r a -> { a with lookup_cycles = bump r a.lookup_cycles });
      (fun r a -> { a with fast_miss_cycles = bump r a.fast_miss_cycles });
      (fun _ a -> { a with reserved_regs_free = not a.reserved_regs_free });
      (fun r a -> { a with context_regs = bump r a.context_regs });
    ]

let mechanisms =
  Config.
    [
      Dispatch;
      Ibtc default_ibtc;
      Ibtc { default_ibtc with entries = 256 };
      Ibtc { default_ibtc with ways = 2 };
      Ibtc { default_ibtc with shared = false };
      Ibtc { default_ibtc with per_site_entries = 16 };
      Ibtc { default_ibtc with miss = Full_switch };
      Ibtc { default_ibtc with hash = Multiplicative };
      Ibtc { default_ibtc with inline_lookup = false };
      Sieve default_sieve;
      Sieve { default_sieve with buckets = 64 };
      Sieve { default_sieve with insert_at_head = false };
      Adaptive default_adaptive;
      Adaptive { default_adaptive with poly_entropy_bits = 2.5 };
      Adaptive { default_adaptive with mono_share_pct = 75 };
    ]

let config_fields : (int -> Config.t -> Config.t) list =
  Config.
    [
      (fun r c -> { c with mech = other r mechanisms c.mech });
      (fun r c ->
        {
          c with
          returns =
            other r
              [
                As_ib;
                Return_cache { entries = 4096 };
                Return_cache { entries = 64 + (r mod 7) };
                Shadow_stack { depth = 1024 };
                Fast_return;
              ]
              c.returns;
        });
      (fun r c -> { c with pred_depth = bump r c.pred_depth });
      (fun _ c -> { c with link_direct = not c.link_direct });
      (fun _ c -> { c with follow_direct_jumps = not c.follow_direct_jumps });
      (fun r c ->
        let modes = [ Spill_auto; Spill_always; Spill_never ] in
        { c with spill = other r modes c.spill });
      (fun r c -> { c with block_limit = bump r c.block_limit });
      (fun r c -> { c with code_capacity = bump r c.code_capacity });
      (fun _ c -> { c with count_memops = not c.count_memops });
      (fun _ c -> { c with profile_ib_sites = not c.profile_ib_sites });
      (fun _ c -> { c with shepherd = not c.shepherd });
      (fun r c ->
        {
          c with
          cfi =
            other r
              [
                Cfi_none;
                Cfi_landing_pad;
                Cfi_compartment { count = 8 };
                Cfi_compartment { count = 9 + (r mod 5) };
                Ret_integrity;
              ]
              c.cfi;
        });
    ]

(* A random value: a preset with a few random fields changed, plus one
   more field index and random value for the property to change. Built
   twice from the same description, it gives two structurally equal
   values allocated separately. *)
let mutation_gen ~presets ~fields =
  QCheck.(
    quad
      (int_bound (List.length presets - 1))
      (small_list (pair (int_bound (fields - 1)) small_nat))
      (int_bound (fields - 1))
      small_nat)

let build presets fields (p, muts, _, _) =
  List.fold_left
    (fun v (i, r) -> (List.nth fields i) r v)
    (List.nth presets p) muts

(* Changing any single field changes the cell key; building the same
   value again, separately, leaves the key alone. The generators must
   keep pace with the records, hence the field count. *)
let key_property ~name ~presets ~fields ~cell =
  QCheck.Test.make ~count:300 ~name
    (mutation_gen ~presets ~fields:(List.length fields))
    (fun ((_, _, i, r) as d) ->
      let v = build presets fields d in
      Obj.size (Obj.repr v) = List.length fields
      && cell v = cell (build presets fields d)
      && cell v <> cell ((List.nth fields i) r v))

(* two arches sharing a [name] (every generated arch that differs from
   its preset in another field) must not share a key *)
let prop_arch_no_alias =
  key_property ~name:"arch name aliasing fixed"
    ~presets:Arch.[ arch_a; arch_b; arch_c; ideal ]
    ~fields:arch_fields
    ~cell:(fun a -> Fingerprint.cell ~key:"gzip:test" ~arch:a ~cfg:None)

(* Config.describe elides spill, block_limit, code_capacity and the
   instrumentation flags; the key covers every field *)
let prop_config_covers_fields =
  key_property ~name:"config covers elided fields"
    ~presets:Config.[ default; baseline ]
    ~fields:config_fields
    ~cell:(fun c ->
      Fingerprint.cell ~key:"gzip:test" ~arch:Arch.arch_a ~cfg:(Some c))

let test_fingerprint_cell_native_vs_cfg () =
  let native = Fingerprint.cell ~key:"k" ~arch:Arch.arch_a ~cfg:None in
  let cfg =
    Fingerprint.cell ~key:"k" ~arch:Arch.arch_a ~cfg:(Some Config.default)
  in
  check bool "native <> configured" true (native <> cfg);
  check bool "key matters" true
    (native <> Fingerprint.cell ~key:"k2" ~arch:Arch.arch_a ~cfg:None)

(* ------------------------------------------------------------------ *)
(* Memo *)

let int_memo namespace : int Memo.t = Memo.create ~namespace

let test_memo_computes_once () =
  let m = int_memo "t" in
  let calls = ref 0 in
  let compute () = incr calls; 42 in
  check int "first" 42 (Memo.find m "k" compute);
  check int "second" 42 (Memo.find m "k" compute);
  check int "computed once" 1 !calls;
  check int "one miss" 1 (Memo.misses m);
  check int "one hit" 1 (Memo.hits m);
  check int "other key recomputes" 42 (Memo.find m "k2" (fun () -> incr calls; 42));
  check int "two computes" 2 !calls

let test_memo_single_flight_across_domains () =
  let m = int_memo "t" in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* widen the race window so concurrent finders really overlap *)
    let rec spin n = if n > 0 then spin (n - 1) in
    spin 3_000_000;
    7
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let results =
        Pool.map pool (fun _ -> Memo.find m "shared" compute) (Array.make 16 ())
      in
      check bool "all see the value" true (Array.for_all (( = ) 7) results));
  check int "single flight: one compute" 1 (Atomic.get computes);
  check int "one miss" 1 (Memo.misses m);
  check int "everyone else hit" 15 (Memo.hits m)

let test_memo_release_on_exception () =
  let m = int_memo "t" in
  let attempts = ref 0 in
  let flaky () =
    incr attempts;
    if !attempts = 1 then failwith "transient" else 5
  in
  (match Memo.find m "k" flaky with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  check int "retry succeeds" 5 (Memo.find m "k" flaky);
  check int "cached thereafter" 5 (Memo.find m "k" (fun () -> assert false))

(* a lookup that lands while the compute is in flight must block (the
   single-flight guarantee), be counted as a wait, and resume with the
   computed value *)
let test_memo_wait_counted () =
  let m = int_memo "w" in
  let started = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Memo.find m "k" (fun () ->
            Atomic.set started true;
            let rec spin n = if n > 0 then spin (n - 1) in
            spin 30_000_000;
            3))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  check int "waiter sees the computed value" 3
    (Memo.find m "k" (fun () -> Alcotest.fail "second compute"));
  check int "wait counted" 1 (Memo.waits m);
  check int "computing domain's own result" 3 (Domain.join d);
  check int "waiter also counts as a hit" 1 (Memo.hits m)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  go 0

let with_sink f =
  let sink = Telemetry.create () in
  Telemetry.install sink;
  Fun.protect ~finally:(fun () -> Telemetry.uninstall ()) (fun () -> f sink)

let test_telemetry_disabled_noop () =
  Telemetry.uninstall ();
  check bool "no sink" true (Telemetry.active () = None);
  check bool "start is 0" true (Telemetry.start () = 0.);
  check int "elapsed is 0" 0 (Telemetry.elapsed_us (Telemetry.start ()));
  (* every hook must be callable with nothing installed *)
  Telemetry.finish ~cat:"c" ~name:"n" (Telemetry.start ());
  Telemetry.sample ~name:"q" 3;
  Telemetry.count "c" 1;
  Telemetry.observe "h" 5;
  check int "span passes the value through" 9
    (Telemetry.span ~cat:"c" ~name:"n" (fun () -> 9))

let test_telemetry_records () =
  with_sink (fun sink ->
      Telemetry.span ~cat:"t" ~name:"outer" (fun () ->
          Telemetry.count ~labels:[ ("k", "v") ] "t.events" 2;
          Telemetry.observe ~bounds:Telemetry.us_bounds "t.lat_us" 42;
          Telemetry.sample ~name:"t.depth" 1);
      check bool "trace events recorded" true (Telemetry.events sink >= 2);
      let chrome = Jsonw.to_string (Telemetry.to_chrome sink) in
      check bool "span exported" true (contains chrome {|"outer"|});
      check bool "counter sample exported" true (contains chrome "t.depth");
      check bool "worker track metadata" true (contains chrome "thread_name");
      let counters = Registry.counters (Telemetry.registry sink) in
      check bool "registry counter with labels" true
        (List.assoc_opt {|t.events{k="v"}|} counters = Some 2);
      check bool "metrics snapshot exports" true
        (contains (Jsonw.to_string (Telemetry.metrics_json sink)) "t.lat_us"))

let test_telemetry_span_survives_raise () =
  with_sink (fun sink ->
      (match Telemetry.span ~cat:"t" ~name:"boom" (fun () -> failwith "x") with
      | _ -> Alcotest.fail "expected the exception through"
      | exception Failure _ -> ());
      check bool "span still recorded" true (Telemetry.events sink >= 1);
      check bool "span named" true
        (contains (Jsonw.to_string (Telemetry.to_chrome sink)) {|"boom"|}))

(* the pool and memo hooks end-to-end: results are unchanged by a live
   sink, and the sink sees task/batch spans, queue-depth samples, and
   the memo's hit/miss accounting *)
let test_telemetry_pool_and_memo_instrumented () =
  let expected = Array.init 16 (fun i -> i mod 4) in
  with_sink (fun sink ->
      let m = int_memo "tele" in
      Pool.with_pool ~jobs:2 (fun pool ->
          let got =
            Pool.map pool
              (fun i -> Memo.find m (string_of_int (i mod 4)) (fun () -> i mod 4))
              (Array.init 16 (fun i -> i))
          in
          check bool "results unchanged under telemetry" true (got = expected));
      let counters = Registry.counters (Telemetry.registry sink) in
      let total prefix =
        List.fold_left
          (fun acc (id, v) ->
            if
              String.length id >= String.length prefix
              && String.sub id 0 (String.length prefix) = prefix
            then acc + v
            else acc)
          0 counters
      in
      check int "memo misses counted" 4 (total "memo.misses");
      check int "memo hits (incl. resumed waiters) counted" 12
        (total "memo.hits" + total "memo.waits");
      let chrome = Jsonw.to_string (Telemetry.to_chrome sink) in
      check bool "task spans" true (contains chrome {|"task"|});
      check bool "batch span" true (contains chrome {|"batch"|});
      check bool "queue depth sampled" true (contains chrome "pool.queue_depth"))

let () =
  Alcotest.run "sdt_par"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_serial;
          Alcotest.test_case "empty and singleton" `Quick
            test_map_empty_and_singleton;
          Alcotest.test_case "iter visits once" `Quick
            test_iter_visits_each_index_once;
          Alcotest.test_case "lowest-index exception" `Quick
            test_lowest_index_exception;
          Alcotest.test_case "reusable after failure" `Quick
            test_pool_reusable_after_failure;
          Alcotest.test_case "with_pool / jobs" `Quick
            test_with_pool_returns_and_jobs;
        ] );
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest prop_arch_no_alias;
          QCheck_alcotest.to_alcotest prop_config_covers_fields;
          Alcotest.test_case "cell native vs configured" `Quick
            test_fingerprint_cell_native_vs_cfg;
        ] );
      ( "memo",
        [
          Alcotest.test_case "computes once" `Quick test_memo_computes_once;
          Alcotest.test_case "single flight across domains" `Quick
            test_memo_single_flight_across_domains;
          Alcotest.test_case "release on exception" `Quick
            test_memo_release_on_exception;
          Alcotest.test_case "wait counted" `Quick test_memo_wait_counted;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "disabled hooks no-op" `Quick
            test_telemetry_disabled_noop;
          Alcotest.test_case "records spans and metrics" `Quick
            test_telemetry_records;
          Alcotest.test_case "span survives a raise" `Quick
            test_telemetry_span_survives_raise;
          Alcotest.test_case "pool and memo instrumented" `Quick
            test_telemetry_pool_and_memo_instrumented;
        ] );
    ]
