(* Measurement primitives for the end-to-end benchmark: statistics,
   peak memory, in-memory spans, the wrappers that split an SDT run's
   host time into execution, trap handling and translation, and the
   per-layer microbenchmarks. Everything here calls only the public
   library API and times calls into a layer from outside it. *)

module Program = Sdt_isa.Program
module Decode = Sdt_isa.Decode
module Arch = Sdt_march.Arch
module Timing = Sdt_march.Timing
module Machine = Sdt_machine.Machine
module Loader = Sdt_machine.Loader
module Block = Sdt_machine.Block
module Runtime = Sdt_core.Runtime
module Env = Sdt_core.Env
module Jsonw = Sdt_observe.Jsonw

let now = Unix.gettimeofday

type mode = [ `Step | `Block | `Block_nochain | `Trace ]

let run_machine (mode : mode) ~max_steps m =
  match mode with
  | `Step -> Machine.run ~max_steps m
  | `Block -> Machine.run_blocks ~max_steps m
  | `Block_nochain -> Machine.run_blocks ~chain:false ~max_steps m
  | `Trace -> Machine.run_blocks ~trace:true ~max_steps m

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted_array xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method, the default of
   Python's statistics.quantiles, so the noise study here and an
   external check over the same values agree. *)
let quartiles xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let j = i * (n + 1) / 4 and delta = (i * (n + 1)) mod 4 in
      let lo = a.(max 0 (min (n - 1) (j - 1))) and hi = a.(max 0 (min (n - 1) j)) in
      ((lo *. float_of_int (4 - delta)) +. (hi *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

(* nearest-rank percentile *)
let percentile p xs =
  let a = sorted_array xs in
  let n = Array.length a in
  if n = 0 then None
  else Some a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Restart the peak-resident-set count from the current resident set
   (Linux 4.0 and later; elsewhere the peak covers the whole process). *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* The process's peak resident set (VmHWM), in MiB; 0 where /proc is
   unavailable. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> 0.
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf
                (String.sub l 6 (String.length l - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0.

(* ------------------------------------------------------------------ *)
(* Spans: kept in memory for the whole traced run and written once at
   exit. Only the benchmark's own (single) domain records them; worker
   domains are covered by the library's Telemetry sink. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  cat : string;
  name : string;
  start : float;
  dur : float;
  args : (string * Jsonw.t) list;
}

let tracing = ref false
let spans : span list ref = ref []
let next_id = ref 1
let current = ref 0

let span ~cat ?(args = fun _ -> []) name f =
  if not !tracing then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let t0 = now () in
    let finish r =
      spans :=
        { id; parent; cat; name; start = t0; dur = now () -. t0; args = args r }
        :: !spans;
      current := parent
    in
    match f () with
    | r ->
        finish (Some r);
        r
    | exception e ->
        finish None;
        raise e
  end

let spans_json t0 =
  Jsonw.List
    (List.rev_map
       (fun s ->
         Jsonw.Obj
           ([
              ("id", Jsonw.Int s.id);
              ("parent", Jsonw.Int s.parent);
              ("cat", Jsonw.Str s.cat);
              ("name", Jsonw.Str s.name);
              ("start_us", Jsonw.Float ((s.start -. t0) *. 1e6));
              ("dur_us", Jsonw.Float (s.dur *. 1e6));
            ]
           @ match s.args with [] -> [] | a -> [ ("args", Jsonw.Obj a) ]))
       !spans)

(* ------------------------------------------------------------------ *)
(* Host-time split of SDT runs the benchmark drives itself. The trap
   handler is wrapped through Machine.set_trap_handler and translation
   through Env.ensure_translated; translation nested in a trap is
   subtracted from the trap's self time. Calls are aggregated per run
   (count, total, self), not recorded one span each. *)

type rt_layers = {
  mutable run_s : float;
  mutable steps : int;
  mutable traps : int;
  mutable trap_s : float;
  mutable ensures : int;
  mutable ensure_s : float;
  mutable ensure_in_trap_s : float;
}

let rt_layers () =
  {
    run_s = 0.;
    steps = 0;
    traps = 0;
    trap_s = 0.;
    ensures = 0;
    ensure_s = 0.;
    ensure_in_trap_s = 0.;
  }

let add_rt_layers acc r =
  acc.run_s <- acc.run_s +. r.run_s;
  acc.steps <- acc.steps + r.steps;
  acc.traps <- acc.traps + r.traps;
  acc.trap_s <- acc.trap_s +. r.trap_s;
  acc.ensures <- acc.ensures + r.ensures;
  acc.ensure_s <- acc.ensure_s +. r.ensure_s;
  acc.ensure_in_trap_s <- acc.ensure_in_trap_s +. r.ensure_in_trap_s

let instrument rt (l : rt_layers) =
  let m = Runtime.machine rt and env = Runtime.env rt in
  let handler = m.Machine.trap_handler in
  let ensure = env.Env.ensure_translated in
  let in_trap = ref false in
  Machine.set_trap_handler m (fun m ~code ~trap_pc ->
      let t0 = now () in
      in_trap := true;
      handler m ~code ~trap_pc;
      in_trap := false;
      l.traps <- l.traps + 1;
      l.trap_s <- l.trap_s +. (now () -. t0));
  env.Env.ensure_translated <-
    (fun pc ->
      let t0 = now () in
      let frag = ensure pc in
      let dt = now () -. t0 in
      l.ensures <- l.ensures + 1;
      l.ensure_s <- l.ensure_s +. dt;
      if !in_trap then l.ensure_in_trap_s <- l.ensure_in_trap_s +. dt;
      frag)

let layer_args (l : rt_layers) =
  [
    ("traps", Jsonw.Int l.traps);
    ("trap_total_us", Jsonw.Float (l.trap_s *. 1e6));
    ("trap_self_us", Jsonw.Float ((l.trap_s -. l.ensure_in_trap_s) *. 1e6));
    ("ensures", Jsonw.Int l.ensures);
    ("ensure_total_us", Jsonw.Float (l.ensure_s *. 1e6));
  ]

(* One SDT run: Runtime.create (which loads the program) then
   Runtime.run, timed together. A [wrapped] run also returns its
   host-time split. *)
let sdt_run ~wrapped ~mode ~max_steps ~arch ~cfg prog =
  let timing = Timing.create arch in
  let t0 = now () in
  let rt = Runtime.create ~cfg ~arch ~timing prog in
  let t1 = now () in
  let l = rt_layers () in
  if wrapped then instrument rt l;
  Runtime.run ~max_steps ~mode rt;
  let t2 = now () in
  l.run_s <- t2 -. t1;
  l.steps <- (Runtime.machine rt).Machine.c.Machine.instructions;
  (rt, timing, t2 -. t0, if wrapped then [ l ] else [])

(* ------------------------------------------------------------------ *)
(* Per-layer microbenchmarks, each on the workload's own programs. A
   measurement repeats its body until [min_s] of work has run. *)

let min_s = 0.05

let repeat_timed body =
  let rec go reps total =
    if total >= min_s then (reps, total)
    else
      let dt = body () in
      go (reps + 1) (total +. dt)
  in
  go 0 0.

(* the words of the segment holding the entry point *)
let text_words (p : Program.t) =
  match
    List.find_opt
      (fun { Program.base; data } ->
        p.Program.entry >= base && p.Program.entry < base + Bytes.length data)
      p.Program.segments
  with
  | None -> [||]
  | Some { Program.base; data } ->
      Program.text_words p
      |> List.filter (fun (a, _) -> a >= base && a < base + Bytes.length data)
      |> List.map snd |> Array.of_list

let decode_ns_per_word progs =
  let texts = List.map text_words progs in
  let words = List.fold_left (fun n a -> n + Array.length a) 0 texts in
  let reps, total =
    repeat_timed (fun () ->
        let t0 = now () in
        List.iter (Array.iter (fun w -> ignore (Sys.opaque_identity (Decode.inst w)))) texts;
        now () -. t0)
  in
  total /. float_of_int (reps * max 1 words) *. 1e9

let load_us progs =
  let reps, total =
    repeat_timed (fun () ->
        let t0 = now () in
        List.iter (fun p -> ignore (Sys.opaque_identity (Loader.load p))) progs;
        now () -. t0)
  in
  total /. float_of_int (reps * max 1 (List.length progs)) *. 1e6

let create_us runs =
  let reps, total =
    repeat_timed (fun () ->
        let t0 = now () in
        List.iter
          (fun (prog, arch, cfg) ->
            ignore
              (Sys.opaque_identity
                 (Runtime.create ~cfg ~arch ~timing:(Timing.create arch) prog)))
          runs;
        now () -. t0)
  in
  total /. float_of_int (reps * max 1 (List.length runs)) *. 1e6

(* A machine that has run a program's first 2M steps under the block
   interpreter, and the block starts it reached. *)
let block_starts prog =
  let m = Loader.load ~timing:(Timing.create Arch.arch_a) prog in
  (try Machine.run_blocks ~max_steps:2_000_000 m with Machine.Error _ -> ());
  ( m,
    match Machine.block_cache m with
    | None -> []
    | Some c -> List.map (fun b -> b.Block.start) (Block.resident c) )

(* Block.find over every block start on a fresh cache: the block
   compiler's cost per block. The machine's decode cache is already
   warm, so decoding (measured on its own above) is left out. *)
let block_compile_us progs =
  let inputs = List.map block_starts progs in
  let blocks = List.fold_left (fun n (_, s) -> n + List.length s) 0 inputs in
  let reps, total =
    repeat_timed (fun () ->
        List.fold_left
          (fun acc ((m : Machine.t), starts) ->
            let c =
              Block.create ~regs:m.Machine.regs ~counters:m.Machine.c
                ?timing:m.Machine.timing m.Machine.mem
            in
            let t0 = now () in
            List.iter (fun pc -> ignore (Block.find c pc)) starts;
            acc +. (now () -. t0))
          0. inputs)
  in
  total /. float_of_int (reps * max 1 blocks) *. 1e6

(* The timing model alone: events recorded with Timing.set_probe on a
   step-mode run (its first 100k instructions), replayed through
   Timing.instr on a fresh accountant. *)
let timing_ns_per_event runs =
  let record (prog, arch) =
    let t = Timing.create arch in
    let evs = ref [] in
    Timing.set_probe t
      (Some (fun ~pc ev ~cycles:_ -> evs := (pc, ev) :: !evs));
    let m = Loader.load ~timing:t prog in
    (try Machine.run ~max_steps:100_000 m with Machine.Error _ -> ());
    (arch, Array.of_list (List.rev !evs))
  in
  let streams = List.map record runs in
  let events =
    List.fold_left (fun n (_, a) -> n + Array.length a) 0 streams
  in
  let reps, total =
    repeat_timed (fun () ->
        List.fold_left
          (fun acc (arch, evs) ->
            let t = Timing.create arch in
            let t0 = now () in
            Array.iter (fun (pc, ev) -> Timing.instr t ~pc ev) evs;
            acc +. (now () -. t0))
          0. streams)
  in
  total /. float_of_int (reps * max 1 events) *. 1e9
