#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/lstm_cell.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace m2g::nn {
namespace {

TEST(LinearTest, ShapesAndBias) {
  Rng rng(1);
  Linear lin(4, 3, &rng);
  Tensor x = Tensor::Constant(Matrix::Ones(2, 4));
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.rows(), 2);
  EXPECT_EQ(y.cols(), 3);
  // Both rows identical for identical inputs.
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(y.value().At(0, c), y.value().At(1, c));
  }
}

TEST(LinearTest, NoBiasVariantHasFewerParams) {
  Rng rng(2);
  Linear with_bias(4, 3, &rng, true);
  Linear no_bias(4, 3, &rng, false);
  EXPECT_EQ(with_bias.ParameterCount(), 4 * 3 + 3);
  EXPECT_EQ(no_bias.ParameterCount(), 4 * 3);
}

TEST(EmbeddingTest, LookupMatchesTableRows) {
  Rng rng(3);
  Embedding emb(10, 4, &rng);
  Tensor rows = emb.Forward({7, 2, 7});
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.cols(), 4);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(rows.value().At(0, c), rows.value().At(2, c));
  }
}

TEST(EmbeddingTest, OutOfRangeIdsClamp) {
  Rng rng(4);
  Embedding emb(5, 3, &rng);
  Tensor low = emb.Forward({-3});
  Tensor zero = emb.Forward({0});
  Tensor high = emb.Forward({99});
  Tensor last = emb.Forward({4});
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(low.value().At(0, c), zero.value().At(0, c));
    EXPECT_EQ(high.value().At(0, c), last.value().At(0, c));
  }
}

TEST(LstmCellTest, StateShapesAndBoundedOutputs) {
  Rng rng(5);
  LstmCell cell(6, 8, &rng);
  LstmState state = cell.InitialState();
  Tensor x = Tensor::Constant(Matrix::Ones(1, 6));
  for (int step = 0; step < 5; ++step) {
    state = cell.Forward(x, state);
    EXPECT_EQ(state.h.cols(), 8);
    // tanh-bounded hidden state.
    for (int c = 0; c < 8; ++c) {
      EXPECT_LE(std::fabs(state.h.value().At(0, c)), 1.0f);
    }
  }
}

TEST(LstmCellTest, GradientsFlowThroughTime) {
  Rng rng(6);
  LstmCell cell(3, 4, &rng);
  LstmState state = cell.InitialState();
  Tensor x = Tensor::Constant(Matrix::Ones(1, 3));
  for (int step = 0; step < 3; ++step) state = cell.Forward(x, state);
  Sum(state.h).Backward();
  for (const Tensor& p : cell.Parameters()) {
    ASSERT_TRUE(p.grad().SameShape(p.value()));
    EXPECT_GT(p.grad().MaxAbs(), 0.0f);
  }
}

TEST(MlpTest, DepthAndShapes) {
  Rng rng(7);
  Mlp mlp({5, 16, 16, 2}, &rng);
  EXPECT_EQ(mlp.in_features(), 5);
  EXPECT_EQ(mlp.out_features(), 2);
  Tensor y = mlp.Forward(Tensor::Constant(Matrix::Ones(3, 5)));
  EXPECT_EQ(y.rows(), 3);
  EXPECT_EQ(y.cols(), 2);
}

TEST(ModuleTest, NamedParametersArePrefixed) {
  Rng rng(8);
  Mlp mlp({2, 4, 1}, &rng);
  auto named = mlp.NamedParameters();
  ASSERT_EQ(named.size(), 4u);  // 2 layers x (weight, bias)
  EXPECT_EQ(named[0].first, "layer0/weight");
  EXPECT_EQ(named[3].first, "layer1/bias");
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  Tensor w = Tensor::Parameter(Matrix(1, 1, {5.0f}));
  Sgd opt({w}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    Tensor loss = Mul(w, w);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamDescendsQuadraticWithOffset) {
  Tensor w = Tensor::Parameter(Matrix(1, 2, {4.0f, -3.0f}));
  Tensor target = Tensor::Constant(Matrix(1, 2, {1.0f, 2.0f}));
  Adam opt({w}, 0.05f);
  for (int i = 0; i < 400; ++i) {
    opt.ZeroGrad();
    Tensor diff = Sub(w, target);
    Sum(Mul(diff, diff)).Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.value()[0], 1.0f, 1e-2f);
  EXPECT_NEAR(w.value()[1], 2.0f, 1e-2f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Tensor w = Tensor::Parameter(Matrix(1, 2, {0.0f, 0.0f}));
  Sgd opt({w}, 1.0f);
  opt.ZeroGrad();
  Sum(Scale(w, 100.0f)).Backward();  // grad = [100, 100], norm ~141.4
  const float before = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(before, 141.42f, 0.1f);
  const float norm_after = w.grad().Norm();
  EXPECT_NEAR(norm_after, 1.0f, 1e-3f);
}

TEST(OptimizerTest, MomentumAcceleratesOverPlainSgd) {
  auto run = [](float momentum) {
    Tensor w = Tensor::Parameter(Matrix(1, 1, {10.0f}));
    Sgd opt({w}, 0.01f, momentum);
    for (int i = 0; i < 50; ++i) {
      opt.ZeroGrad();
      Mul(w, w).Backward();
      opt.Step();
    }
    return std::fabs(w.value()[0]);
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(SerializeTest, RoundTripRestoresExactWeights) {
  Rng rng(9);
  Mlp a({3, 8, 2}, &rng);
  Mlp b({3, 8, 2}, &rng);  // different init
  const std::string path = ::testing::TempDir() + "/mlp_weights.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  ASSERT_TRUE(LoadModule(&b, path).ok());
  auto pa = a.Parameters();
  auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    for (size_t j = 0; j < pa[i].value().size(); ++j) {
      EXPECT_EQ(pa[i].value()[j], pb[i].value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(10);
  Mlp a({3, 8, 2}, &rng);
  Mlp wrong({3, 9, 2}, &rng);
  const std::string path = ::testing::TempDir() + "/mlp_mismatch.bin";
  ASSERT_TRUE(SaveModule(a, path).ok());
  Status s = LoadModule(&wrong, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileIsIoError) {
  Rng rng(11);
  Mlp a({2, 2}, &rng);
  Status s = LoadModule(&a, "/nonexistent/path/weights.bin");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// Flattened parameter values, for "the module is unchanged" checks.
std::vector<float> Snapshot(const Module& module) {
  std::vector<float> flat;
  for (const Tensor& p : module.Parameters()) {
    flat.insert(flat.end(), p.value().data(),
                p.value().data() + p.value().size());
  }
  return flat;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::string bytes;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

// Byte offsets of each record's (rows, cols) header and float data in a
// SaveModule file: magic, count, then per record name_len, name, rows,
// cols, data.
struct RecordLayout {
  std::string name;
  size_t shape_offset;
  size_t data_offset;
};

std::vector<RecordLayout> Records(const std::string& bytes) {
  std::vector<RecordLayout> out;
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 4, 4);
  size_t at = 8;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    std::memcpy(&name_len, bytes.data() + at, 4);
    RecordLayout r;
    r.name = bytes.substr(at + 4, name_len);
    r.shape_offset = at + 4 + name_len;
    int32_t rows = 0, cols = 0;
    std::memcpy(&rows, bytes.data() + r.shape_offset, 4);
    std::memcpy(&cols, bytes.data() + r.shape_offset + 4, 4);
    r.data_offset = r.shape_offset + 8;
    at = r.data_offset + sizeof(float) * static_cast<size_t>(rows) * cols;
    out.push_back(r);
  }
  return out;
}

class SerializeCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(13);
    Mlp source({3, 8, 2}, &rng);
    path_ = ::testing::TempDir() + "/mlp_corrupt.bin";
    ASSERT_TRUE(SaveModule(source, path_).ok());
    bytes_ = ReadFile(path_);
    records_ = Records(bytes_);
    ASSERT_GE(records_.size(), 2u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Loads `bytes` into a differently initialized module and expects a
  /// non-OK status with every parameter left as it was.
  Status LoadIntoFresh(const std::string& bytes) {
    Rng rng(14);
    Mlp target({3, 8, 2}, &rng);
    const std::vector<float> before = Snapshot(target);
    WriteFile(path_, bytes);
    Status s = LoadModule(&target, path_);
    EXPECT_EQ(Snapshot(target), before) << "module was partially loaded";
    return s;
  }

  std::string path_;
  std::string bytes_;
  std::vector<RecordLayout> records_;
};

TEST_F(SerializeCorruptionTest, HugeShapeHeaderIsRejectedWithoutAllocating) {
  // The last record claims 2^30 x 2^30 floats: 4 EiB, far past the bytes
  // left in the file. It must be rejected from the header alone.
  std::string bytes = bytes_;
  const int32_t huge = 1 << 30;
  std::memcpy(&bytes[records_.back().shape_offset], &huge, 4);
  std::memcpy(&bytes[records_.back().shape_offset + 4], &huge, 4);
  Status s = LoadIntoFresh(bytes);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find(records_.back().name), std::string::npos)
      << s.message();
}

TEST_F(SerializeCorruptionTest, NanWeightIsRejectedNamingTheParameter) {
  // Poison the last record, so every earlier record has already passed
  // its checks when the NaN is found.
  std::string bytes = bytes_;
  const float nan = std::nanf("");
  std::memcpy(&bytes[records_.back().data_offset], &nan, sizeof(nan));
  Status s = LoadIntoFresh(bytes);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(records_.back().name), std::string::npos)
      << s.message();
}

TEST_F(SerializeCorruptionTest, InfWeightIsRejected) {
  std::string bytes = bytes_;
  const float inf = -INFINITY;
  std::memcpy(&bytes[records_.front().data_offset], &inf, sizeof(inf));
  EXPECT_EQ(LoadIntoFresh(bytes).code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeCorruptionTest, LateMissingRecordLeavesModuleUnchanged) {
  // Rename the last record: the count still matches, every earlier
  // parameter checks out, and only the last lookup fails.
  std::string bytes = bytes_;
  bytes[records_.back().shape_offset - 1] ^= 0x20;
  Status s = LoadIntoFresh(bytes);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("missing parameter"), std::string::npos)
      << s.message();
}

TEST(InitTest, XavierBoundsRespectFanInOut) {
  Rng rng(12);
  Matrix w = XavierUniform(100, 50, &rng);
  const float bound = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(w.MaxAbs(), bound + 1e-6f);
  EXPECT_GT(w.MaxAbs(), bound * 0.5f);  // actually fills the range
}

}  // namespace
}  // namespace m2g::nn
