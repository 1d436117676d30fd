(* Timing functor over the OpenCL host API.

   [Make (L) (C)] is [C] with every entry point shadowed by a span named
   "<L.prefix>.<entry point>", the same shadowing pattern
   [Suite.Capture.Recording] uses to record clBuildProgram.  Applied to
   both [Bridge.Cl_api.Native] and [Bridge.Cl_on_cuda.Api], it lets the
   traced apps run charge each call to the native framework or to the
   OpenCL-on-CUDA wrapper library without touching either. *)

module Make
    (L : sig val prefix : string end)
    (C : Bridge.Cl_api.S) :
  Bridge.Cl_api.S
  with type t = C.t
   and type buffer = C.buffer
   and type kernel = C.kernel
   and type image = C.image
   and type sampler = C.sampler = struct
  type t = C.t
  type buffer = C.buffer
  type kernel = C.kernel
  type image = C.image
  type sampler = C.sampler

  let framework_name = C.framework_name

  let span entry = Spans.wrap (Spans.intern (L.prefix ^ "." ^ entry))

  let host =
    let s = span "host" in
    fun t -> s (fun () -> C.host t)

  let time_ns =
    let s = span "time_ns" in
    fun t -> s (fun () -> C.time_ns t)

  let build_time_ns =
    let s = span "build_time_ns" in
    fun t -> s (fun () -> C.build_time_ns t)

  let device_name =
    let s = span "device_name" in
    fun t -> s (fun () -> C.device_name t)

  let device_info =
    let s = span "device_info" in
    fun t p -> s (fun () -> C.device_info t p)

  let create_buffer =
    let s = span "create_buffer" in
    fun t ?read_only size -> s (fun () -> C.create_buffer t ?read_only size)

  let write_buffer =
    let s = span "write_buffer" in
    fun t b ?offset ~size ~ptr () ->
      s (fun () -> C.write_buffer t b ?offset ~size ~ptr ())

  let read_buffer =
    let s = span "read_buffer" in
    fun t b ?offset ~size ~ptr () ->
      s (fun () -> C.read_buffer t b ?offset ~size ~ptr ())

  let release_buffer =
    let s = span "release_buffer" in
    fun t b -> s (fun () -> C.release_buffer t b)

  let build_program =
    let s = span "build_program" in
    fun t src -> s (fun () -> C.build_program t src)

  let create_kernel =
    let s = span "create_kernel" in
    fun t name -> s (fun () -> C.create_kernel t name)

  let set_arg_buffer =
    let s = span "set_arg_buffer" in
    fun t k i b -> s (fun () -> C.set_arg_buffer t k i b)

  let set_arg_int =
    let s = span "set_arg_int" in
    fun t k i n -> s (fun () -> C.set_arg_int t k i n)

  let set_arg_float =
    let s = span "set_arg_float" in
    fun t k i x -> s (fun () -> C.set_arg_float t k i x)

  let set_arg_double =
    let s = span "set_arg_double" in
    fun t k i x -> s (fun () -> C.set_arg_double t k i x)

  let set_arg_local =
    let s = span "set_arg_local" in
    fun t k i n -> s (fun () -> C.set_arg_local t k i n)

  let set_arg_image =
    let s = span "set_arg_image" in
    fun t k i img -> s (fun () -> C.set_arg_image t k i img)

  let set_arg_sampler =
    let s = span "set_arg_sampler" in
    fun t k i smp -> s (fun () -> C.set_arg_sampler t k i smp)

  let create_image2d =
    let s = span "create_image2d" in
    fun t ~width ~height ~order ~chtype ?host_ptr () ->
      s (fun () -> C.create_image2d t ~width ~height ~order ~chtype ?host_ptr ())

  let create_sampler =
    let s = span "create_sampler" in
    fun t ~normalized ~address ~filter ->
      s (fun () -> C.create_sampler t ~normalized ~address ~filter)

  let read_image =
    let s = span "read_image" in
    fun t img ~ptr -> s (fun () -> C.read_image t img ~ptr)

  let enqueue_nd_range =
    let s = span "enqueue_nd_range" in
    fun t k ~gws ~lws -> s (fun () -> C.enqueue_nd_range t k ~gws ~lws)

  let finish =
    let s = span "finish" in
    fun t -> s (fun () -> C.finish t)
end
