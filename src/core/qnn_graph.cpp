#include "core/qnn_graph.h"

#include <cmath>

#include "common/rng.h"
#include "common/status.h"
#include "core/graph_plan.h"
#include "refconv/conv_ref.h"

namespace lbc::core {
namespace {

float tensor_absmax(const Tensor<float>& t) {
  float m = 0;
  for (float v : t.span()) m = std::max(m, std::fabs(v));
  return m;
}

Tensor<float> relu_f(const Tensor<float>& x) {
  Tensor<float> out(x.shape());
  for (i64 i = 0; i < x.elems(); ++i)
    out.data()[i] = x.data()[i] > 0 ? x.data()[i] : 0.0f;
  return out;
}

}  // namespace

QnnGraph::NodeId QnnGraph::push(Node n) {
  nodes_.push_back(std::move(n));
  calibrated_ = false;
  plans_.clear();
  return static_cast<NodeId>(nodes_.size() - 1);
}

QnnGraph::NodeId QnnGraph::add_input(i64 channels, i64 hw) {
  Node n;
  n.kind = Kind::kInput;
  n.out_shape = Shape4{1, channels, hw, hw};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_conv(NodeId src, i64 out_c, i64 kernel,
                                    i64 stride, i64 pad, int bits,
                                    const Tensor<float>& weight,
                                    std::span<const float> bias, bool relu) {
  const Shape4 in = at(src).out_shape;
  Node n;
  n.kind = Kind::kConv;
  n.src0 = src;
  n.bits = bits;
  n.relu = relu;
  n.conv.name = "conv" + std::to_string(nodes_.size());
  n.conv.batch = 1;
  n.conv.in_c = in.c;
  n.conv.in_h = in.h;
  n.conv.in_w = in.w;
  n.conv.out_c = out_c;
  n.conv.kernel = kernel;
  n.conv.stride = stride;
  n.conv.pad = pad;
  LBC_CHECK_MSG(n.conv.valid(), "add_conv: invalid conv shape");
  LBC_CHECK_MSG(weight.shape() == (Shape4{out_c, in.c, kernel, kernel}),
                "add_conv: weight tensor does not match out_c/in_c/kernel");
  n.weight_f = weight;
  if (!bias.empty()) {
    LBC_CHECK_MSG(static_cast<i64>(bias.size()) == out_c,
                  "add_conv: bias size does not match out_c");
    n.bias_f.assign(bias.begin(), bias.end());
  }
  n.out_shape = Shape4{1, out_c, n.conv.out_h(), n.conv.out_w()};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_add(NodeId a, NodeId b, bool relu) {
  LBC_CHECK_MSG(at(a).out_shape == at(b).out_shape,
                "add_add: operand shapes differ");
  Node n;
  n.kind = Kind::kAdd;
  n.src0 = a;
  n.src1 = b;
  n.relu = relu;
  n.bits = std::max(at(a).bits, at(b).bits);
  n.out_shape = at(a).out_shape;
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_maxpool2(NodeId src) {
  const Shape4 in = at(src).out_shape;
  LBC_CHECK_MSG(in.h % 2 == 0 && in.w % 2 == 0,
                "add_maxpool2: input height/width must be even");
  Node n;
  n.kind = Kind::kMaxPool2;
  n.src0 = src;
  n.bits = at(src).bits;
  n.out_shape = Shape4{1, in.c, in.h / 2, in.w / 2};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_global_avgpool(NodeId src) {
  const Shape4 in = at(src).out_shape;
  Node n;
  n.kind = Kind::kGlobalAvgPool;
  n.src0 = src;
  n.bits = at(src).bits;
  n.out_shape = Shape4{1, in.c, 1, 1};
  return push(std::move(n));
}

Shape4 QnnGraph::output_shape() const {
  LBC_CHECK_MSG(!nodes_.empty(), "output_shape: graph has no nodes");
  return nodes_.back().out_shape;
}

// ---------------------------------------------------------------------------
// fp32 reference forward (also the calibration pass)
// ---------------------------------------------------------------------------

Tensor<float> QnnGraph::forward_fp32(const Tensor<float>& x) const {
  std::vector<Tensor<float>> acts(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    switch (n.kind) {
      case Kind::kInput:
        LBC_CHECK_MSG(x.shape() == n.out_shape,
                      "forward_fp32: input shape does not match input node");
        acts[i] = x;
        break;
      case Kind::kConv: {
        Tensor<float> y =
            ref::conv2d_f32(n.conv, acts[static_cast<size_t>(n.src0)], n.weight_f);
        if (!n.bias_f.empty())
          for (i64 c = 0; c < y.shape().c; ++c)
            for (i64 h = 0; h < y.shape().h; ++h)
              for (i64 w = 0; w < y.shape().w; ++w)
                y.at(0, c, h, w) += n.bias_f[static_cast<size_t>(c)];
        acts[i] = n.relu ? relu_f(y) : y;
        break;
      }
      case Kind::kAdd: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        const Tensor<float>& b = acts[static_cast<size_t>(n.src1)];
        Tensor<float> y(a.shape());
        for (i64 j = 0; j < a.elems(); ++j)
          y.data()[j] = a.data()[j] + b.data()[j];
        acts[i] = n.relu ? relu_f(y) : y;
        break;
      }
      case Kind::kMaxPool2: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        Tensor<float> y(n.out_shape);
        for (i64 c = 0; c < y.shape().c; ++c)
          for (i64 h = 0; h < y.shape().h; ++h)
            for (i64 w = 0; w < y.shape().w; ++w)
              y.at(0, c, h, w) = std::max(
                  std::max(a.at(0, c, 2 * h, 2 * w), a.at(0, c, 2 * h, 2 * w + 1)),
                  std::max(a.at(0, c, 2 * h + 1, 2 * w),
                           a.at(0, c, 2 * h + 1, 2 * w + 1)));
        acts[i] = y;
        break;
      }
      case Kind::kGlobalAvgPool: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        Tensor<float> y(n.out_shape);
        const float inv = 1.0f / static_cast<float>(a.shape().h * a.shape().w);
        for (i64 c = 0; c < a.shape().c; ++c) {
          float sum = 0;
          for (i64 h = 0; h < a.shape().h; ++h)
            for (i64 w = 0; w < a.shape().w; ++w) sum += a.at(0, c, h, w);
          y.at(0, c, 0, 0) = sum * inv;
        }
        acts[i] = y;
        break;
      }
    }
  }
  return acts.back();
}

Status QnnGraph::calibrate(const Tensor<float>& x) {
  LBC_VALIDATE(!nodes_.empty(), kInvalidArgument,
               "calibrate: graph has no nodes");
  LBC_VALIDATE(nodes_.front().kind == Kind::kInput, kInvalidArgument,
               "calibrate: graph must start with an input node");
  LBC_VALIDATE(x.shape() == nodes_.front().out_shape, kInvalidArgument,
               "calibrate: input tensor does not match the input node");
  for (float v : x.span())
    LBC_VALIDATE(std::isfinite(v), kInvalidArgument,
                 "calibrate: non-finite calibration value");
  plans_.clear();

  // A node feeding a lower-bit consumer must already emit activations in
  // that consumer's range (the paper's QNNs quantize both operands of a
  // b-bit conv to b bits), so propagate consumer bit widths backwards.
  for (auto& n : nodes_) n.act_bits = n.bits;
  for (size_t i = nodes_.size(); i-- > 0;) {
    const Node& n = nodes_[i];
    for (NodeId src : {n.src0, n.src1})
      if (src >= 0)
        nodes_[static_cast<size_t>(src)].act_bits = std::min(
            nodes_[static_cast<size_t>(src)].act_bits, n.act_bits);
  }

  // fp32 pass, recording absmax per node output.
  std::vector<Tensor<float>> acts(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    // Reuse forward_fp32 logic node by node (duplicated intentionally to
    // record intermediates without storing the whole graph twice).
    switch (n.kind) {
      case Kind::kInput: acts[i] = x; break;
      case Kind::kConv: {
        Tensor<float> y =
            ref::conv2d_f32(n.conv, acts[static_cast<size_t>(n.src0)], n.weight_f);
        if (!n.bias_f.empty())
          for (i64 c = 0; c < y.shape().c; ++c)
            for (i64 h = 0; h < y.shape().h; ++h)
              for (i64 w = 0; w < y.shape().w; ++w)
                y.at(0, c, h, w) += n.bias_f[static_cast<size_t>(c)];
        acts[i] = n.relu ? relu_f(y) : y;
        LBC_ASSIGN_OR_RETURN(
            n.weight_scheme,
            quant::choose_scheme(tensor_absmax(n.weight_f), n.bits));
        n.weight_q = quant::quantize(n.weight_f, n.weight_scheme);
        break;
      }
      case Kind::kAdd: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        const Tensor<float>& b = acts[static_cast<size_t>(n.src1)];
        Tensor<float> y(a.shape());
        for (i64 j = 0; j < a.elems(); ++j)
          y.data()[j] = a.data()[j] + b.data()[j];
        acts[i] = n.relu ? relu_f(y) : y;
        break;
      }
      case Kind::kMaxPool2:
      case Kind::kGlobalAvgPool: {
        // Delegate to the fp32 kernels above via a tiny local graph would
        // be overkill; recompute inline.
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        if (n.kind == Kind::kMaxPool2) {
          Tensor<float> y(n.out_shape);
          for (i64 c = 0; c < y.shape().c; ++c)
            for (i64 h = 0; h < y.shape().h; ++h)
              for (i64 w = 0; w < y.shape().w; ++w)
                y.at(0, c, h, w) = std::max(
                    std::max(a.at(0, c, 2 * h, 2 * w),
                             a.at(0, c, 2 * h, 2 * w + 1)),
                    std::max(a.at(0, c, 2 * h + 1, 2 * w),
                             a.at(0, c, 2 * h + 1, 2 * w + 1)));
          acts[i] = y;
        } else {
          Tensor<float> y(n.out_shape);
          const float inv =
              1.0f / static_cast<float>(a.shape().h * a.shape().w);
          for (i64 c = 0; c < a.shape().c; ++c) {
            float sum = 0;
            for (i64 h = 0; h < a.shape().h; ++h)
              for (i64 w = 0; w < a.shape().w; ++w) sum += a.at(0, c, h, w);
            y.at(0, c, 0, 0) = sum * inv;
          }
          acts[i] = y;
        }
        break;
      }
    }
    LBC_ASSIGN_OR_RETURN(
        n.scheme, quant::choose_scheme(tensor_absmax(acts[i]), n.act_bits));
    n.calibrated = true;
  }
  calibrated_ = true;
  return Status();
}

// ---------------------------------------------------------------------------
// integer forward
// ---------------------------------------------------------------------------

QnnGraph::RunResult QnnGraph::forward(const Tensor<float>& x,
                                      armkern::ConvAlgo algo) const {
  LBC_CHECK_MSG(calibrated_, "forward: call calibrate() first");
  // Compile-once, execute-many: the whole net is compiled into a GraphPlan
  // (fused epilogues + per-layer blocking + liveness-packed arena) the first
  // time each algo is requested. Graph construction already validated the
  // convs; a compile failure here is a programming error, so .value()
  // (fatal, defined) is correct.
  std::shared_ptr<const GraphPlan>& plan = plans_[static_cast<int>(algo)];
  if (plan == nullptr) {
    GraphPlanOptions opt;
    opt.algo = algo;
    plan = std::make_shared<const GraphPlan>(
        GraphPlan::compile(*this, opt).value());
  }
  return plan->forward(x, arena_, scratch_).value();
}

// ---------------------------------------------------------------------------
// Block builder
// ---------------------------------------------------------------------------

QnnGraph::NodeId add_bottleneck_block(QnnGraph& g, QnnGraph::NodeId src,
                                      i64 in_c, i64 mid_c, i64 out_c,
                                      i64 stride, int bits, u64 seed) {
  auto rand_w = [&](i64 oc, i64 ic, i64 k, u64 s) {
    return random_ftensor(Shape4{oc, ic, k, k}, -0.25f, 0.25f, s);
  };
  const auto c1 = g.add_conv(src, mid_c, 1, stride, 0, bits,
                             rand_w(mid_c, in_c, 1, seed), {}, /*relu=*/true);
  const auto c2 = g.add_conv(c1, mid_c, 3, 1, 1, bits,
                             rand_w(mid_c, mid_c, 3, seed + 1), {}, true);
  const auto c3 = g.add_conv(c2, out_c, 1, 1, 0, bits,
                             rand_w(out_c, mid_c, 1, seed + 2), {}, false);
  QnnGraph::NodeId shortcut = src;
  if (in_c != out_c || stride != 1)
    shortcut = g.add_conv(src, out_c, 1, stride, 0, bits,
                          rand_w(out_c, in_c, 1, seed + 3), {}, false);
  return g.add_add(c3, shortcut, /*relu=*/true);
}

}  // namespace lbc::core
