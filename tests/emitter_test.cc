// Tests for the join emitter: projection mapping, null padding, mark
// columns, batch flushing behavior, and the match-vector gather (against
// MaterializeJoinRow) with its count-only emission.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "join/emitter.h"
#include "util/rng.h"

namespace pjoin {
namespace {

class RecordingSink : public Operator {
 public:
  explicit RecordingSink(const RowLayout* layout) : layout_(layout) {}
  void Consume(Batch& batch, ThreadContext&) override {
    ++batches_;
    for (uint32_t i = 0; i < batch.size; ++i) {
      std::vector<int64_t> row;
      for (int f = 0; f < layout_->num_fields(); ++f) {
        row.push_back(layout_->GetInt64(batch.Row(i), f));
      }
      rows_.push_back(std::move(row));
    }
  }
  const RowLayout* OutputLayout() const override { return layout_; }

  int batches_ = 0;
  std::vector<std::vector<int64_t>> rows_;

 private:
  const RowLayout* layout_;
};

// Records every pushed batch's size and raw row bytes.
class RawSink : public Operator {
 public:
  explicit RawSink(const RowLayout* layout) : layout_(layout) {}
  void Consume(Batch& batch, ThreadContext&) override {
    sizes_.push_back(batch.size);
    for (uint32_t i = 0; i < batch.size; ++i) {
      const std::byte* row = batch.Row(i);
      rows_.emplace_back(row, row + layout_->stride());
    }
  }
  const RowLayout* OutputLayout() const override { return layout_; }

  std::vector<uint32_t> sizes_;
  std::vector<std::vector<std::byte>> rows_;

 private:
  const RowLayout* layout_;
};

class EmitterTest : public ::testing::Test {
 protected:
  EmitterTest()
      : build_({{"b0", DataType::kInt64, 8, 0}, {"b1", DataType::kInt64, 8, 0}}),
        probe_({{"p0", DataType::kInt64, 8, 0}}),
        out_({{"b1", DataType::kInt64, 8, 0},
              {"p0", DataType::kInt64, 8, 0},
              {"m", DataType::kInt64, 8, 0}}) {
    projection_.output = &out_;
    projection_.build = &build_;
    projection_.probe = &probe_;
    projection_.from_build = {{0, 1}};  // out.b1 <- build.b1
    projection_.from_probe = {{1, 0}};  // out.p0 <- probe.p0
    projection_.mark_field = 2;
    sink_ = std::make_unique<RecordingSink>(&out_);
    emitter_.Bind(&projection_, sink_.get());
    ctx_.thread_id = 0;
    bytes_ = std::make_unique<ByteCounter>();
    ctx_.bytes = bytes_.get();
  }

  std::vector<std::byte> BuildRow(int64_t b0, int64_t b1) {
    std::vector<std::byte> row(build_.stride());
    build_.SetInt64(row.data(), 0, b0);
    build_.SetInt64(row.data(), 1, b1);
    return row;
  }
  std::vector<std::byte> ProbeRow(int64_t p0) {
    std::vector<std::byte> row(probe_.stride());
    probe_.SetInt64(row.data(), 0, p0);
    return row;
  }

  RowLayout build_, probe_, out_;
  JoinProjection projection_;
  std::unique_ptr<RecordingSink> sink_;
  std::unique_ptr<ByteCounter> bytes_;
  JoinEmitter emitter_;
  ThreadContext ctx_;
};

TEST_F(EmitterTest, PairProjectsSelectedFields) {
  auto b = BuildRow(7, 42);
  auto p = ProbeRow(99);
  emitter_.EmitPair(b.data(), p.data(), ctx_);
  emitter_.Flush(ctx_);
  ASSERT_EQ(sink_->rows_.size(), 1u);
  EXPECT_EQ(sink_->rows_[0][0], 42);  // b1, not b0
  EXPECT_EQ(sink_->rows_[0][1], 99);
}

TEST_F(EmitterTest, ProbeOnlyZeroesBuildSide) {
  auto p = ProbeRow(5);
  emitter_.EmitProbeOnly(p.data(), ctx_);
  emitter_.Flush(ctx_);
  EXPECT_EQ(sink_->rows_[0][0], 0);
  EXPECT_EQ(sink_->rows_[0][1], 5);
}

TEST_F(EmitterTest, BuildOnlyZeroesProbeSide) {
  auto b = BuildRow(1, 2);
  emitter_.EmitBuildOnly(b.data(), ctx_);
  emitter_.Flush(ctx_);
  EXPECT_EQ(sink_->rows_[0][0], 2);
  EXPECT_EQ(sink_->rows_[0][1], 0);
}

TEST_F(EmitterTest, MarkColumnSet) {
  auto p = ProbeRow(5);
  emitter_.EmitMark(p.data(), true, ctx_);
  emitter_.EmitMark(p.data(), false, ctx_);
  emitter_.Flush(ctx_);
  ASSERT_EQ(sink_->rows_.size(), 2u);
  EXPECT_EQ(sink_->rows_[0][2], 1);
  EXPECT_EQ(sink_->rows_[1][2], 0);
}

TEST_F(EmitterTest, FlushesFullBatchesAutomatically) {
  auto b = BuildRow(1, 2);
  auto p = ProbeRow(3);
  for (uint32_t i = 0; i < kBatchCapacity + 10; ++i) {
    emitter_.EmitPair(b.data(), p.data(), ctx_);
  }
  EXPECT_EQ(sink_->batches_, 1);  // one full batch pushed eagerly
  emitter_.Flush(ctx_);
  EXPECT_EQ(sink_->batches_, 2);
  EXPECT_EQ(sink_->rows_.size(), kBatchCapacity + 10);
  EXPECT_EQ(emitter_.rows_emitted(), kBatchCapacity + 10);
}

TEST_F(EmitterTest, FlushOnEmptyIsNoop) {
  emitter_.Flush(ctx_);
  EXPECT_EQ(sink_->batches_, 0);
}

// Rows with 4-byte, 8-byte, double and CHAR(n) fields on both sides; the
// output takes fields from both sides in an order unlike either source.
class GatherFixture {
 public:
  GatherFixture()
      : build_({{"bk", DataType::kInt64, 8, 0},
                {"bi", DataType::kInt32, 4, 0},
                {"bd", DataType::kFloat64, 8, 0},
                {"bc", DataType::kChar, 5, 0},
                {"bx", DataType::kInt64, 8, 0}}),
        probe_({{"pi", DataType::kInt32, 4, 0},
                {"pc", DataType::kChar, 3, 0},
                {"pk", DataType::kInt64, 8, 0},
                {"pd", DataType::kFloat64, 8, 0}}),
        out_({{"pd", DataType::kFloat64, 8, 0},
              {"bc", DataType::kChar, 5, 0},
              {"pi", DataType::kInt32, 4, 0},
              {"bk", DataType::kInt64, 8, 0},
              {"pc", DataType::kChar, 3, 0},
              {"bi", DataType::kInt32, 4, 0},
              {"bd", DataType::kFloat64, 8, 0}}) {
    projection_.output = &out_;
    projection_.build = &build_;
    projection_.probe = &probe_;
    projection_.from_build = {{1, 3}, {3, 0}, {5, 1}, {6, 2}};
    projection_.from_probe = {{0, 3}, {2, 0}, {4, 1}};
    Rng rng(77);
    build_rows_ = RandomRows(build_, 300, rng);
    probe_rows_ = RandomRows(probe_, 200, rng);
  }

  // Fills `matches` with n pairs cycling through the rows at two strides.
  void Fill(MatchVector& matches, uint32_t n, uint32_t salt) const {
    matches.size = 0;
    for (uint32_t k = 0; k < n; ++k) {
      matches.Add(build_rows_[(k * 7 + salt) % build_rows_.size()].data(),
                  probe_rows_[(k * 13 + salt) % probe_rows_.size()].data());
    }
  }

  std::vector<std::byte> Expected(const MatchVector& matches,
                                  uint32_t k) const {
    std::vector<std::byte> row(out_.stride());
    MaterializeJoinRow(projection_, row.data(), matches.build[k],
                       matches.probe[k]);
    return row;
  }

  RowLayout build_, probe_, out_;
  JoinProjection projection_;

 private:
  static std::vector<std::vector<std::byte>> RandomRows(
      const RowLayout& layout, int n, Rng& rng) {
    std::vector<std::vector<std::byte>> rows;
    for (int r = 0; r < n; ++r) {
      std::vector<std::byte> row(layout.stride());
      for (std::byte& b : row) b = static_cast<std::byte>(rng.Next() & 0xFF);
      rows.push_back(std::move(row));
    }
    return rows;
  }

  std::vector<std::vector<std::byte>> build_rows_;
  std::vector<std::vector<std::byte>> probe_rows_;
};

TEST_F(EmitterTest, GatherMatchesMaterializeJoinRow) {
  GatherFixture g;
  RawSink sink(&g.out_);
  JoinEmitter emitter;
  emitter.Bind(&g.projection_, &sink);
  EXPECT_EQ(emitter.CollectFor(JoinKind::kInner), MatchCollect::kPairs);
  auto matches = std::make_unique<MatchVector>();
  std::vector<std::vector<std::byte>> expected;
  for (uint32_t n : {1u, 300u, kBatchCapacity, 5u}) {
    g.Fill(*matches, n, n);
    for (uint32_t k = 0; k < n; ++k) expected.push_back(g.Expected(*matches, k));
    emitter.EmitMatches(*matches, ctx_);
  }
  emitter.Flush(ctx_);
  ASSERT_EQ(sink.rows_.size(), expected.size());
  for (size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(sink.rows_[r], expected[r]) << "row " << r;
  }
  EXPECT_EQ(emitter.rows_emitted(), expected.size());
}

TEST_F(EmitterTest, GatherIntoRowBufferAcrossPages) {
  GatherFixture g;
  RawSink sink(&g.out_);
  JoinEmitter emitter;
  emitter.Bind(&g.projection_, &sink);
  RowBuffer out(g.out_.stride(), /*page_rows=*/100);
  auto matches = std::make_unique<MatchVector>();
  g.Fill(*matches, kBatchCapacity, 3);
  emitter.GatherInto(*matches, out);
  emitter.GatherInto(*matches, out);
  ASSERT_EQ(out.size(), 2u * kBatchCapacity);
  for (uint64_t r = 0; r < out.size(); ++r) {
    const std::vector<std::byte> want = g.Expected(*matches, r % kBatchCapacity);
    ASSERT_EQ(std::memcmp(out.RowAt(r), want.data(), want.size()), 0)
        << "row " << r;
  }
  EXPECT_EQ(sink.sizes_.size(), 0u);  // nothing pushed downstream
}

// A full vector arriving with rows already pending splits over two output
// batches, in order.
TEST_F(EmitterTest, MatchVectorLongerThanOutputBatch) {
  auto b = BuildRow(1, 2);
  auto p = ProbeRow(3);
  for (int i = 0; i < 10; ++i) emitter_.EmitPair(b.data(), p.data(), ctx_);
  std::vector<std::vector<std::byte>> builds, probes;
  auto matches = std::make_unique<MatchVector>();
  for (uint32_t k = 0; k < kBatchCapacity; ++k) {
    builds.push_back(BuildRow(0, 1000 + k));
    probes.push_back(ProbeRow(5000 + k));
  }
  for (uint32_t k = 0; k < kBatchCapacity; ++k) {
    matches->Add(builds[k].data(), probes[k].data());
  }
  emitter_.EmitMatches(*matches, ctx_);
  EXPECT_EQ(sink_->batches_, 1);  // the full batch went out
  emitter_.Flush(ctx_);
  ASSERT_EQ(sink_->batches_, 2);
  ASSERT_EQ(sink_->rows_.size(), kBatchCapacity + 10);
  for (uint32_t r = 0; r < 10; ++r) EXPECT_EQ(sink_->rows_[r][0], 2);
  for (uint32_t k = 0; k < kBatchCapacity; ++k) {
    ASSERT_EQ(sink_->rows_[10 + k][0], 1000 + static_cast<int64_t>(k));
    ASSERT_EQ(sink_->rows_[10 + k][1], 5000 + static_cast<int64_t>(k));
  }
}

// No output field: inner and left-outer walks only count, the emitter only
// advances the batch size, and batches still go out at kBatchCapacity.
TEST_F(EmitterTest, EmptyProjectionCountsAcrossBatchBoundary) {
  RowLayout empty(std::vector<RowField>{});
  ASSERT_EQ(empty.stride(), 0u);
  JoinProjection projection;
  projection.output = &empty;
  projection.build = &build_;
  projection.probe = &probe_;
  RawSink sink(&empty);
  JoinEmitter emitter;
  emitter.Bind(&projection, &sink);
  EXPECT_EQ(emitter.CollectFor(JoinKind::kInner), MatchCollect::kCount);
  EXPECT_EQ(emitter.CollectFor(JoinKind::kLeftOuter), MatchCollect::kCount);
  EXPECT_EQ(emitter.CollectFor(JoinKind::kRightOuter), MatchCollect::kPairs);
  EXPECT_EQ(emitter.CollectFor(JoinKind::kMark), MatchCollect::kNothing);

  MatchVector counted;  // a count-only walk sets the size alone
  counted.size = 700;
  emitter.EmitMatches(counted, ctx_);
  EXPECT_TRUE(sink.sizes_.empty());
  emitter.EmitMatches(counted, ctx_);
  EXPECT_EQ(sink.sizes_, std::vector<uint32_t>({kBatchCapacity}));
  counted.size = kBatchCapacity;
  emitter.EmitMatches(counted, ctx_);
  auto p = ProbeRow(1);
  emitter.EmitProbeOnly(p.data(), ctx_);
  emitter.Flush(ctx_);
  EXPECT_EQ(sink.sizes_,
            std::vector<uint32_t>({kBatchCapacity, kBatchCapacity, 377}));
  EXPECT_EQ(emitter.rows_emitted(), 700u + 700u + kBatchCapacity + 1u);
}

}  // namespace
}  // namespace pjoin
