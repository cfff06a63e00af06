(* The measuring half of the benchmark (perfbench/run.py builds and drives
   it; README.md describes the workloads and metrics). One invocation runs
   one workload for a fixed number of seconds, checks every guest result
   against an oracle that does not go through the translator, and prints
   one JSON line:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With [--trace 0] the metrics are the end-to-end ones; with [--trace 1]
   untraced and traced passes alternate and the metrics are per layer,
   timed by wrapping each layer's public entry points from here (the
   program itself carries no spans). *)

let now = Unix.gettimeofday

(* ---- arguments --------------------------------------------------------- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scratch : string;
  break_check : string option;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload spec-run|serve-echo|lockstep --seed N \
     --seconds S --trace 0|1 [--scratch DIR] [--break CHECK]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and scratch = ref "." and break_check = ref None in
  let rec go = function
    | "--workload" :: v :: r -> workload := Some v; go r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; go r
    | "--seconds" :: v :: r -> seconds := float_of_string_opt v; go r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); go r
    | "--scratch" :: v :: r -> scratch := v; go r
    | "--break" :: v :: r -> break_check := Some v; go r
    | [] -> ()
    | a :: _ -> prerr_endline ("bench: bad argument " ^ a); usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0. ->
    { workload; seed; seconds; trace; scratch = !scratch;
      break_check = !break_check }
  | _ -> usage ()

(* [--break CHECK] feeds one deliberately wrong answer to the named check
   (state, response, lockstep or vcycles), to show that it can fail. *)
let breaking a name = a.break_check = Some name

(* ---- statistics -------------------------------------------------------- *)

let pct l p =
  match l with
  | [] -> nan
  | _ -> Serve.percentile (Array.of_list (List.sort compare l)) p

let median l = pct l 50.
let ms s = s *. 1000.

(* ---- host-speed reference ---------------------------------------------- *)

(* Other tenants of this host's cores slow everything down by up to 1.7x
   in phases lasting seconds to minutes, so raw host seconds of two runs
   of the same commit differ by more than any useful bound. A run
   therefore times a fixed reference slice of plain OCaml code (an
   L2-resident random read/write loop, then streaming fills of a 4 MiB
   buffer) between every two units of work, and scales each unit's host
   time by [slice_nominal_s] over the mean of the slices just before and
   after it: host seconds at the speed at which the slice takes
   [slice_nominal_s]. The slice does not touch the program under test, so
   a change to the program moves the scaled figures as it moves the raw
   ones. *)
let slice_nominal_s = 0.012
let slice_small = Bytes.create (1 lsl 18)
let slice_big = Bytes.create (4 lsl 20)

let reference_slice () =
  let t0 = now () in
  let mask = Bytes.length slice_small - 1 in
  let x = ref 12345 and acc = ref 0 in
  for i = 0 to 4_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x7fffffff;
    let j = !x land mask in
    Bytes.unsafe_set slice_small j (Char.unsafe_chr (i land 255));
    acc := !acc + Char.code (Bytes.unsafe_get slice_small ((j * 7) land mask))
  done;
  for k = 0 to 7 do
    Bytes.fill slice_big 0 (Bytes.length slice_big) (Char.chr k)
  done;
  let i = ref 0 in
  while !i < Bytes.length slice_big do
    acc := !acc + Char.code (Bytes.unsafe_get slice_big !i);
    i := !i + 64
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let slices = ref []
let last_slice = ref nan

let take_slice () =
  let s = reference_slice () in
  slices := s :: !slices;
  last_slice := s

(* Take the slice that closes a unit of work; returns the unit's scale. *)
let scale_since_last () =
  let before = !last_slice in
  take_slice ();
  slice_nominal_s /. ((before +. !last_slice) /. 2.)

(* The run-wide scale, applied to the per-layer times. *)
let speed () = slice_nominal_s /. median !slices

(* ---- run bookkeeping --------------------------------------------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int; (* check failures *)
}

let tally = { attempted = 0; failed = 0; wrong = 0 }

let wrong fmt =
  Printf.ksprintf
    (fun s ->
      if tally.wrong < 20 then prerr_endline ("bench: WRONG " ^ s);
      tally.wrong <- tally.wrong + 1)
    fmt

(* Run one operation. An exception is a failed operation, not a wrong
   answer. *)
let attempt name f =
  tally.attempted <- tally.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    tally.failed <- tally.failed + 1;
    prerr_endline
      (Printf.sprintf "bench: %s failed: %s" name (Printexc.to_string e));
    None

let check_vcycles a ~what ~expect got =
  let got = if breaking a "vcycles" then got + 1 else got in
  if got <> expect then
    wrong "%s: modelled cycles %d, first untraced pass gave %d" what got expect

(* Every round (a pass, or a request on serve-echo) must model exactly the
   same cycles, traced or not. *)
let vcycles = ref None

let round_cycles a ~what c =
  match !vcycles with
  | None -> vcycles := Some c
  | Some v -> check_vcycles a ~what ~expect:v c

(* ---- per-layer wrappers (traced passes only) --------------------------- *)

(* Host seconds and counts of the layer calls made by traced operations. *)
type layers = {
  mutable rounds : int; (* traced passes, or traced requests *)
  mutable create_s : float;
  mutable run_s : float;
  mutable cold_s : float;
  mutable cold_n : int;
  mutable hot_s : float;
  mutable hot_n : int;
  mutable install_s : float;
  mutable sys_s : float;
  mutable sys_n : int;
  mutable slots : int;
  mutable hits : int;
  mutable misses : int;
  mutable ref_s : float;
  mutable ref_insns : int;
  mutable sync_s : float;
  mutable commits : int;
  mutable metrics_s : float;
  mutable gc_rounds : int; (* rounds the allocation figures cover *)
  mutable minor_w : float;
  mutable major_w : float;
  mutable traced_s : float list; (* per round *)
  mutable untraced_s : float list; (* the same work untraced, per round *)
}

let l =
  { rounds = 0; create_s = 0.; run_s = 0.; cold_s = 0.; cold_n = 0;
    hot_s = 0.; hot_n = 0; install_s = 0.; sys_s = 0.; sys_n = 0; slots = 0;
    hits = 0; misses = 0; ref_s = 0.; ref_insns = 0; sync_s = 0.;
    commits = 0; metrics_s = 0.; gc_rounds = 0; minor_w = 0.; major_w = 0.;
    traced_s = []; untraced_s = [] }

(* Btlib.Linuxsim with its system-service entry point timed. *)
module Timed_linuxsim : Btlib.Btos.S = struct
  include Btlib.Linuxsim

  let perform vos st call =
    let t0 = now () in
    let r = Btlib.Linuxsim.perform vos st call in
    l.sys_s <- l.sys_s +. (now () -. t0);
    l.sys_n <- l.sys_n + 1;
    r
end

let timed_btlib : (module Btlib.Btos.S) = (module Timed_linuxsim)

(* Pass-through wrapper on the engine's translation hook: times every live
   cold and hot translation, and the host work of the filter already
   installed (the persistent cache's install path) apart from the live
   translations it falls back to. The engine requires a total filter to
   be behaviourally invisible; the vcycles check confirms it. *)
let wrap_translate (eng : Ia32el.Engine.t) =
  let inner = eng.Ia32el.Engine.translate_filter in
  let timed_live phase live () =
    let t0 = now () in
    let r = live () in
    let dt = now () -. t0 in
    (match phase with
    | Obs.Trace.Cold ->
      l.cold_s <- l.cold_s +. dt;
      l.cold_n <- l.cold_n + 1
    | Obs.Trace.Hot ->
      l.hot_s <- l.hot_s +. dt;
      l.hot_n <- l.hot_n + 1);
    r
  in
  eng.Ia32el.Engine.translate_filter <-
    Some
      (fun ~phase ~entry ~entry_tos ~flag ~live ->
        let live = timed_live phase live in
        match inner with
        | None -> live ()
        | Some f ->
          let t0 = now () and x0 = l.cold_s +. l.hot_s in
          let r = f ~phase ~entry ~entry_tos ~flag ~live in
          let in_live = l.cold_s +. l.hot_s -. x0 in
          l.install_s <- l.install_s +. (now () -. t0 -. in_live);
          r)

(* OCaml allocation of [f ()], added to the per-layer totals. *)
let count_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  l.gc_rounds <- l.gc_rounds + 1;
  l.minor_w <- l.minor_w +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  l.major_w <- l.major_w +. (g1.Gc.major_words -. g0.Gc.major_words);
  r

(* [traced_engine_run image ?request ~attach] times Instance.create and
   Instance.run with every wrapper in place; [attach] runs between the
   two, inside neither span. *)
let traced_engine_run ?request ?(attach = fun _ -> ()) image =
  let t0 = now () in
  let inst = Ia32el.Instance.create ~btlib:timed_btlib image in
  let t1 = now () in
  attach inst.Ia32el.Instance.eng;
  wrap_translate inst.Ia32el.Instance.eng;
  let t2 = now () in
  let r = Ia32el.Instance.run ?request inst in
  let t3 = now () in
  l.create_s <- l.create_s +. (t1 -. t0);
  l.run_s <- l.run_s +. (t3 -. t2);
  l.slots <-
    l.slots
    + inst.Ia32el.Instance.eng.Ia32el.Engine.machine.Ipf.Machine.stats
        .Ipf.Machine.slots_retired;
  (inst, r, t1 -. t0 +. (t3 -. t2))

(* ---- set-up ------------------------------------------------------------ *)

let setup_reps = 11

(* Assemble every image of the workload: the images, and the host seconds
   of the [Common.build] calls. *)
let assemble progs =
  let t0 = now () in
  let images =
    List.map
      (fun (w : Workloads.Common.t) ->
        (w.Workloads.Common.name, w.Workloads.Common.build ~scale:1 ~wide:false))
      progs
  in
  (images, now () -. t0)

(* ---- oracles (never timed) --------------------------------------------- *)

let arena_page p =
  let b = Ia32.Memory.page_bits in
  p >= Ia32el.Block.arena_base lsr b
  && p < (Ia32el.Block.arena_base + Ia32el.Block.arena_size) lsr b

(* Architectural difference between a translated run's final state and the
   reference interpreter's: EIP, GPRs, flags, the logical x87 stack, XMM
   and every guest page outside the translator's private profile arena. *)
let state_diff (e : Ia32.State.t) (r : Ia32.State.t) =
  let module S = Ia32.State in
  let d = ref [] in
  let add s = d := s :: !d in
  if e.S.eip <> r.S.eip then add "eip";
  Array.iteri
    (fun i v -> if v <> r.S.regs.(i) then add (Printf.sprintf "gpr%d" i))
    e.S.regs;
  if
    (e.S.cf, e.S.pf, e.S.af, e.S.zf, e.S.sf, e.S.of_, e.S.df)
    <> (r.S.cf, r.S.pf, r.S.af, r.S.zf, r.S.sf, r.S.of_, r.S.df)
  then add "eflags";
  if not (Ia32.Fpu.logical_equal e.S.fpu r.S.fpu) then add "x87";
  if e.S.xmm_lo <> r.S.xmm_lo || e.S.xmm_hi <> r.S.xmm_hi then add "xmm";
  (match Ia32.Memory.first_diff ~skip:arena_page e.S.mem r.S.mem with
  | Some a -> add (Printf.sprintf "memory at %#x" a)
  | None -> ());
  List.rev !d

type reference = {
  ref_exit : int;
  ref_output : string;
  ref_state : Ia32.State.t;
  ref_insns : int;
  ref_s : float;
}

(* The reference interpreter alone, on a fresh load of [image]. *)
let reference image =
  let mem = Ia32.Memory.create () in
  let st = Ia32.Asm.load image mem in
  let vos = Btlib.Vos.create mem in
  let t0 = now () in
  let outcome, insns =
    Ia32el.Refvehicle.run ~btlib:(module Btlib.Linuxsim) vos st
  in
  let ref_s = now () -. t0 in
  match outcome with
  | Ia32el.Refvehicle.Exited (code, st) ->
    { ref_exit = code; ref_output = Btlib.Vos.output vos; ref_state = st;
      ref_insns = insns; ref_s }
  | _ -> failwith "the reference interpreter did not exit"

(* The serve-echo guest's documented reply, written from its protocol
   rather than taken from the workload library: every payload byte XOR
   0x5A, then the running checksum c <- rol3(c + byte), from 0 over the
   request bytes, as 4 little-endian bytes. *)
let echo_oracle payload =
  let n = String.length payload in
  let out = Bytes.create (n + 4) in
  let c = ref 0 in
  String.iteri
    (fun i ch ->
      let b = Char.code ch in
      let s = (!c + b) land 0xFFFF_FFFF in
      c := ((s lsl 3) lor (s lsr 29)) land 0xFFFF_FFFF;
      Bytes.set out i (Char.chr (b lxor 0x5A)))
    payload;
  for k = 0 to 3 do
    Bytes.set out (n + k) (Char.chr ((!c lsr (8 * k)) land 0xFF))
  done;
  Bytes.to_string out

(* ---- the measured loop ------------------------------------------------- *)

(* Run passes until [seconds] have gone by: at least one, and at least one
   of each kind when tracing, untraced and traced passes alternating. *)
let measure a ~untraced ~traced =
  let t_end = now () +. a.seconds in
  let n = ref 0 in
  while !n = 0 || (a.trace && !n < 2) || now () < t_end do
    if a.trace && !n mod 2 = 1 then traced () else untraced ();
    incr n
  done

(* ---- metrics ----------------------------------------------------------- *)

(* The end-to-end metrics, from host times already scaled to reference
   speed. [run_s] is seconds per pass, [ops] the operations in a pass,
   [service] the service times whose percentiles are reported.
   peak_rss_mb is added by run.py, which sees the benchmark and its
   serving workers exit. *)
let end_to_end ~setup_s ~run_s ~ops ~service =
  [
    ("setup_s", "s", setup_s);
    ("run_s", "s", run_s);
    ("vcycles", "cycles", float_of_int (Option.value !vcycles ~default:0));
    ("req_per_s", "1/s", float_of_int ops /. run_s);
    ("service_p50_ms", "ms", ms (pct service 50.));
    ("service_p95_ms", "ms", ms (pct service 95.));
  ]

(* The per-layer metrics: totals of the traced operations per round, host
   times at the run's reference speed ([assemble_s] and [compile_s] come
   scaled). The remainders (step, sync, ipc) are reported
   as measured, negative or not. *)
let per_layer ~assemble_s ~compile_s ~ipc_s =
  let f = speed () in
  let r = float_of_int (max 1 l.rounds) in
  let g = float_of_int (max 1 l.gc_rounds) in
  let per_ms s = ms s *. f /. r and per n = float_of_int n /. r in
  let step_s = l.run_s -. l.cold_s -. l.hot_s -. l.sys_s -. l.install_s in
  let mrate n s = float_of_int n /. (s *. f) /. 1e6 in
  [
    ("workloads.assemble_ms", "ms", ms assemble_s);
    ("persist.compile_ms", "ms", ms compile_s);
    ("core.create_ms", "ms", per_ms l.create_s);
    ("core.run_ms", "ms", per_ms l.run_s);
    ("core.cold_xlate_ms", "ms", per_ms l.cold_s);
    ("core.cold_xlates", "count", per l.cold_n);
    ("core.hot_xlate_ms", "ms", per_ms l.hot_s);
    ("core.hot_xlates", "count", per l.hot_n);
    ("persist.install_ms", "ms", per_ms l.install_s);
    ("persist.hits", "count", per l.hits);
    ("persist.misses", "count", per l.misses);
    ("btlib.syscall_ms", "ms", per_ms l.sys_s);
    ("btlib.syscalls", "count", per l.sys_n);
    ("ipf.step_ms", "ms", per_ms step_s);
    ("ipf.slots", "count", per l.slots);
    ("ipf.mslots_per_s", "Mslots/s", mrate l.slots step_s);
    ("ia32.ref_ms", "ms", per_ms l.ref_s);
    ("ia32.ref_insns", "count", per l.ref_insns);
    ( "ia32.ref_minsns_per_s", "Minsns/s",
      if l.ref_s > 0. then mrate l.ref_insns l.ref_s else 0. );
    ("core.lockstep_sync_ms", "ms", per_ms l.sync_s);
    ("core.commits", "count", per l.commits);
    ("obs.metrics_ms", "ms", per_ms l.metrics_s);
    ("serve.ipc_ms", "ms", ms ipc_s *. f);
    ("gc.minor_mwords", "Mwords", l.minor_w /. g /. 1e6);
    ("gc.major_mwords", "Mwords", l.major_w /. g /. 1e6);
    ("trace.overhead", "ratio", median l.traced_s /. median l.untraced_s);
  ]

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let emit metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v)
          unit)
      metrics
  in
  let correct = tally.wrong = 0 in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct tally.attempted tally.failed (String.concat ", " m);
  exit (if correct then 0 else 1)

(* ---- program suites: spec-run and lockstep ------------------------------ *)

(* Run every program once per pass; [op ~traced name image] runs one and
   returns its modelled cycles and host seconds, having checked its
   result. Returns the set-up seconds and each program's median untraced
   seconds. Allocation is counted over the untraced passes. *)
let suite a progs ~op =
  take_slice ();
  let setups =
    List.init setup_reps (fun _ ->
        let images, s = assemble progs in
        (images, s *. scale_since_last ()))
  in
  let images = fst (List.hd setups) in
  let times = Hashtbl.create 17 in
  let pass ~traced () =
    let total = ref 0. and cycles = ref 0 in
    List.iter
      (fun (name, image) ->
        let r = attempt name (fun () -> op ~traced name image) in
        let f = scale_since_last () in
        match r with
        | Some (c, dt) ->
          total := !total +. dt;
          cycles := !cycles + c;
          if not traced then Hashtbl.add times name (dt *. f)
        | None -> ())
      images;
    round_cycles a ~what:(if traced then "traced pass" else "pass") !cycles;
    if traced then begin
      l.rounds <- l.rounds + 1;
      l.traced_s <- !total :: l.traced_s
    end
    else l.untraced_s <- !total :: l.untraced_s
  in
  measure a
    ~untraced:(fun () -> count_gc (pass ~traced:false))
    ~traced:(pass ~traced:true);
  let medians =
    List.map (fun (name, _) -> median (Hashtbl.find_all times name)) images
  in
  (images, median (List.map snd setups), medians)

(* The run time of a suite is the sum of its programs' median times, and
   the service percentiles are taken across those medians. *)
let suite_metrics a ~setup_s ~medians =
  if a.trace then per_layer ~assemble_s:setup_s ~compile_s:0. ~ipc_s:0.
  else
    end_to_end ~setup_s
      ~run_s:(List.fold_left ( +. ) 0. medians)
      ~ops:(List.length medians) ~service:medians

let spec_run a =
  let progs = Workloads.Spec_int.all @ Workloads.Spec_fp.all in
  let refs = Hashtbl.create 17 in
  let op ~traced name image =
    let rf =
      match Hashtbl.find_opt refs name with
      | Some rf -> rf
      | None ->
        let rf = reference image in
        Hashtbl.add refs name rf;
        rf
    in
    let inst, r, dt =
      if traced then traced_engine_run image
      else begin
        let t0 = now () in
        let inst = Ia32el.Instance.create image in
        let r = Ia32el.Instance.run inst in
        (inst, r, now () -. t0)
      end
    in
    (match r.Ia32el.Instance.stop with
    | Ia32el.Instance.Exited c when c = rf.ref_exit -> ()
    | s ->
      wrong "%s: stopped %s, the reference exited %d" name
        (Ia32el.Instance.stop_to_string s) rf.ref_exit);
    if r.Ia32el.Instance.output <> rf.ref_output then
      wrong "%s: console output differs from the reference" name;
    let rst = Ia32.State.copy rf.ref_state in
    if breaking a "state" then
      rst.Ia32.State.regs.(0) <- rst.Ia32.State.regs.(0) lxor 1;
    (match state_diff inst.Ia32el.Instance.st rst with
    | [] -> ()
    | d -> wrong "%s: final state differs in %s" name (String.concat ", " d));
    (r.Ia32el.Instance.cycles, dt)
  in
  let _, setup_s, medians = suite a progs ~op in
  (* the oracle ran the reference interpreter once per program; count it
     once per traced pass, as the layers timed inside the passes are *)
  Hashtbl.iter
    (fun _ rf ->
      l.ref_s <- l.ref_s +. (float_of_int l.rounds *. rf.ref_s);
      l.ref_insns <- l.ref_insns + (l.rounds * rf.ref_insns))
    refs;
  suite_metrics a ~setup_s ~medians

let lockstep a =
  let progs =
    let w = Workloads.Threads.default_workers in
    [ Workloads.Sysmark.office; Workloads.Sysmark.misalign_stress;
      Workloads.Threads.producer_consumer ~workers:w;
      Workloads.Threads.parallel_workers ~workers:w; Workloads.Spec_int.gcc ]
  in
  (* break: corrupt EAX at the engine's 3rd slow-path dispatch *)
  let sabotage e =
    if breaking a "lockstep" then
      Harness.Capsule.sabotage_attach
        { Harness.Capsule.sb_dispatch = 3; sb_reg = Ia32.Insn.Eax;
          sb_value = 0x5A5A }
        e
  in
  let lockstep_run ~btlib ~attach name image =
    let eng = ref None in
    let t0 = now () in
    let mem = Ia32.Memory.create () in
    let st = Ia32.Asm.load image mem in
    let rep =
      Ia32el.Lockstep.run ~btlib
        ~attach:(fun e ->
          eng := Some e;
          attach e)
        mem st
    in
    let dt = now () -. t0 in
    (match (rep.Ia32el.Lockstep.divergence, rep.Ia32el.Lockstep.outcome) with
    | None, Some (Ia32el.Engine.Exited (0, _)) -> ()
    | Some d, _ ->
      wrong "%s: diverged at commit %d: %s" name d.Ia32el.Lockstep.commit_index
        (String.concat "; " d.Ia32el.Lockstep.diffs)
    | None, _ -> wrong "%s: did not exit 0" name);
    (rep, Ia32el.Engine.clock (Option.get !eng), dt)
  in
  let op ~traced name image =
    if not traced then begin
      let _, c, dt =
        lockstep_run ~btlib:(module Btlib.Linuxsim) ~attach:sabotage name image
      in
      (c, dt)
    end
    else begin
      (* the engine alone, the reference alone, then the two in lockstep
         with the same wrappers; synchronisation is what the lockstep run
         costs beyond the three parts *)
      let _, r, engine_s = traced_engine_run image in
      (match r.Ia32el.Instance.stop with
      | Ia32el.Instance.Exited 0 -> ()
      | s ->
        wrong "%s: the engine alone stopped %s" name
          (Ia32el.Instance.stop_to_string s));
      let rf = reference image in
      l.ref_s <- l.ref_s +. rf.ref_s;
      l.ref_insns <- l.ref_insns + rf.ref_insns;
      let sys_n = l.sys_n and sys_s = l.sys_s and cold = (l.cold_s, l.cold_n)
      and hot = (l.hot_s, l.hot_n) in
      let rep, c, dt =
        lockstep_run ~btlib:timed_btlib ~attach:wrap_translate name image
      in
      (* layer times come from the engine-alone run *)
      l.sys_n <- sys_n;
      l.sys_s <- sys_s;
      l.cold_s <- fst cold;
      l.cold_n <- snd cold;
      l.hot_s <- fst hot;
      l.hot_n <- snd hot;
      l.sync_s <- l.sync_s +. dt -. engine_s -. rf.ref_s;
      l.commits <- l.commits + rep.Ia32el.Lockstep.commits;
      (c, dt)
    end
  in
  let _, setup_s, medians = suite a progs ~op in
  suite_metrics a ~setup_s ~medians

(* ---- serve-echo -------------------------------------------------------- *)

let payload_len = 256
let batch_size = 96
let workers = 2

let serve_echo a =
  let rng = Random.State.make [| a.seed |] in
  let payload () =
    String.init payload_len (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let path = Filename.concat a.scratch "serve-echo.tcache" in
  let cleanup () =
    List.iter
      (fun f -> try Sys.remove f with Sys_error _ -> ())
      [ path; path ^ ".lock" ]
  in
  let train = payload () in
  take_slice ();
  let setups =
    List.init setup_reps (fun _ ->
        cleanup ();
        let images, assemble_s = assemble [ Workloads.Serve_echo.workload ] in
        let t0 = now () in
        (match Serve.compile_tcache ~path ~scale:1 ~payload:train () with
        | [] -> ()
        | e :: _ -> failwith (Ia32el.Bt_error.to_string e));
        let compile_s = now () -. t0 in
        let f = scale_since_last () in
        (snd (List.hd images), assemble_s *. f, compile_s *. f))
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let image = match setups with (img, _, _) :: _ -> img | [] -> assert false in
  let assemble_s = median (List.map (fun (_, s, _) -> s) setups) in
  let compile_s = median (List.map (fun (_, _, s) -> s) setups) in
  let pool =
    Serve.pool ~backend:Serve.Forked ~workers ~queue:0 ~tcache:path
      ~tcache_readonly:true ()
  in
  let store =
    match
      Persist.load ~path ~image_hash:(Persist.image_hash image)
        ~config_fp:(Persist.config_fingerprint Ia32el.Config.default)
    with
    | store, [] -> store
    | _, e :: _ -> failwith (Ia32el.Bt_error.to_string e)
  in
  let check_reply ~what p ~cycles ~exit ~response ~misses =
    round_cycles a ~what cycles;
    let response =
      if breaking a "response" then
        String.mapi
          (fun i c -> if i = 0 then Char.chr (Char.code c lxor 1) else c)
          response
      else response
    in
    if exit <> Some 0 then wrong "%s: the guest did not exit 0" what;
    if response <> echo_oracle p then
      wrong "%s: the response differs from the echo oracle" what;
    if misses <> 0 then wrong "%s: %d persist misses" what misses
  in
  let batches = ref [] and service = ref [] and ipc_s = ref 0. in
  let untraced () =
    let payloads = List.init batch_size (fun _ -> payload ()) in
    let jobs =
      List.map (fun p -> { Serve.payload = p; max_cycles = None }) payloads
    in
    let t0 = now () in
    let b = Serve.run_batch ~drain_between:true pool jobs in
    let wall = now () -. t0 in
    let f = scale_since_last () in
    List.iter2
      (fun p (rsp : Serve.response) ->
        tally.attempted <- tally.attempted + 1;
        match rsp.Serve.result with
        | Some r when rsp.Serve.rejected = None ->
          let s = r.Serve.r_service_us /. 1e6 in
          service := (s *. f) :: !service;
          ipc_s := !ipc_s -. s;
          l.untraced_s <- s :: l.untraced_s;
          check_reply ~what:"request" p ~cycles:r.Serve.r_cycles
            ~exit:r.Serve.r_exit ~response:r.Serve.r_response
            ~misses:r.Serve.r_tc_misses
        | _ -> tally.failed <- tally.failed + 1)
      payloads b.Serve.responses;
    batches := (wall *. f) :: !batches;
    ipc_s := !ipc_s +. (float_of_int workers *. wall)
  in
  (* the worker's per-request sequence, inline: Instance.create, then
     Persist.attach, Instance.run ~request and Obs.Metrics.to_string *)
  let traced_request p =
    let session = ref None in
    let attach eng = session := Some (Persist.attach ~readonly:true store eng) in
    let t0 = now () in
    let inst, r, _ = traced_engine_run ~request:p ~attach image in
    let t1 = now () in
    ignore (Obs.Metrics.to_string (Ia32el.Instance.metrics inst));
    let t2 = now () in
    let st = Persist.stats (Option.get !session) in
    l.rounds <- l.rounds + 1;
    l.metrics_s <- l.metrics_s +. (t2 -. t1);
    l.hits <- l.hits + st.Persist.hits;
    l.misses <- l.misses + st.Persist.misses;
    l.traced_s <- (t2 -. t0) :: l.traced_s;
    check_reply ~what:"traced request" p ~cycles:r.Ia32el.Instance.cycles
      ~exit:
        (match r.Ia32el.Instance.stop with
        | Ia32el.Instance.Exited c -> Some c
        | _ -> None)
      ~response:r.Ia32el.Instance.response ~misses:st.Persist.misses
  in
  let traced () =
    List.iter
      (fun p ->
        ignore
          (attempt "traced request" (fun () ->
               count_gc (fun () -> traced_request p))))
      (List.init batch_size (fun _ -> payload ()));
    take_slice ()
  in
  measure a ~untraced ~traced;
  if a.trace then
    per_layer ~assemble_s ~compile_s
      ~ipc_s:(!ipc_s /. float_of_int (List.length !service))
  else
    end_to_end
      ~setup_s:(median (List.map (fun (_, a, c) -> a +. c) setups))
      ~run_s:(median !batches) ~ops:batch_size ~service:!service

let () =
  let a = parse_args () in
  emit
    (match a.workload with
    | "spec-run" -> spec_run a
    | "serve-echo" -> serve_echo a
    | "lockstep" -> lockstep a
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2)
