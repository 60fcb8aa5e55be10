#include <memory>

#include <gtest/gtest.h>

#include "cache/lru_cache.h"
#include "common/clock.h"
#include "common/random.h"
#include "counting_store.h"
#include "dscl/dscl.h"
#include "dscl/enhanced_store.h"
#include "dscl/tiered_store.h"
#include "dscl/transformer.h"
#include "store/memory_store.h"

namespace dstore {
namespace {

// --- TransformChain ---

TEST(TransformChainTest, CompressThenEncryptRoundTrips) {
  auto cipher = std::move(AesCbcCipher::MakeWithSeed(Bytes(16, 1), 7)).value();
  TransformChain chain;
  chain.Add(std::make_unique<CompressionTransformer>(
      std::make_unique<GzipCodec>()));
  chain.Add(std::make_unique<EncryptionTransformer>(std::move(cipher)));

  Random rng(1);
  const Bytes input = rng.CompressibleBytes(50000, 0.8);
  auto encoded = chain.Apply(input);
  ASSERT_TRUE(encoded.ok());
  EXPECT_NE(*encoded, input);
  // Redundant data compressed before encryption: output smaller than input.
  EXPECT_LT(encoded->size(), input.size());
  auto decoded = chain.Reverse(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, input);
}

TEST(TransformChainTest, DescribeListsStages) {
  TransformChain chain;
  EXPECT_EQ(chain.Describe(), "none");
  chain.Add(std::make_unique<CompressionTransformer>(
      std::make_unique<GzipCodec>()));
  chain.Add(std::make_unique<EncryptionTransformer>(
      std::make_unique<IdentityCipher>()));
  EXPECT_EQ(chain.Describe(), "gzip+identity");
}

TEST(TransformChainTest, ReverseDetectsCorruption) {
  auto chain = std::move(MakeStandardChain(
      std::make_unique<GzipCodec>(),
      std::move(AesCbcCipher::MakeWithSeed(Bytes(16, 2), 3)).value())).value();
  auto encoded = chain->Apply(ToBytes("payload payload payload"));
  ASSERT_TRUE(encoded.ok());
  Bytes tampered = *encoded;
  tampered[tampered.size() / 2] ^= 0xff;
  EXPECT_FALSE(chain->Reverse(tampered).ok());
}

// --- EnhancedStore: tight integration ---

class EnhancedStoreTest : public ::testing::Test {
 protected:
  std::shared_ptr<EnhancedStore> MakeStore(
      EnhancedStore::Options options = {},
      std::shared_ptr<TransformChain> chain = nullptr) {
    base_ = std::make_shared<CountingStore>();
    cache_ = std::make_shared<ExpiringCache>(
        std::make_unique<LruCache>(64u << 20), &clock_);
    return std::make_shared<EnhancedStore>(base_, cache_, std::move(chain),
                                           options);
  }

  SimulatedClock clock_;
  std::shared_ptr<CountingStore> base_;
  std::shared_ptr<ExpiringCache> cache_;
};

TEST_F(EnhancedStoreTest, CacheHitAvoidsServerRoundTrip) {
  auto store = MakeStore();
  ASSERT_TRUE(store->PutString("k", "v").ok());
  for (int i = 0; i < 5; ++i) {
    auto got = store->GetString("k");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v");
  }
  // Write-through put populated the cache: zero base reads.
  EXPECT_EQ(base_->calls["get"], 0);
  EXPECT_EQ(store->Stats().cache_hits, 5u);
}

TEST_F(EnhancedStoreTest, MissFetchesAndPopulates) {
  auto store = MakeStore();
  // Write directly to the base, bypassing the enhanced client.
  ASSERT_TRUE(base_->PutString("k", "v").ok());
  EXPECT_EQ(*store->GetString("k"), "v");
  EXPECT_EQ(base_->calls["get"], 1);
  EXPECT_EQ(*store->GetString("k"), "v");  // now cached
  EXPECT_EQ(base_->calls["get"], 1);
  EXPECT_EQ(store->Stats().cache_misses, 1u);
  EXPECT_EQ(store->Stats().cache_hits, 1u);
}

TEST_F(EnhancedStoreTest, InvalidatePolicyDropsCacheOnPut) {
  EnhancedStore::Options options;
  options.write_policy = EnhancedStore::WritePolicy::kInvalidate;
  auto store = MakeStore(options);
  (void)store->PutString("k", "v1");
  EXPECT_FALSE(cache_->Contains("k"));
  EXPECT_EQ(*store->GetString("k"), "v1");  // miss, fetch, populate
  EXPECT_EQ(base_->calls["get"], 1);
  (void)store->PutString("k", "v2");  // invalidates again
  EXPECT_EQ(*store->GetString("k"), "v2");
  EXPECT_EQ(base_->calls["get"], 2);
}

TEST_F(EnhancedStoreTest, ExpiredEntryRevalidatedWith304) {
  EnhancedStore::Options options;
  options.cache_ttl_nanos = 1000;
  auto store = MakeStore(options);
  (void)store->PutString("k", "v");
  clock_.Advance(2000);  // entry expires
  // Object unchanged at the server: the conditional GET returns
  // not_modified; no full fetch happens.
  EXPECT_EQ(*store->GetString("k"), "v");
  EXPECT_EQ(base_->calls["getifchanged"], 1);
  EXPECT_EQ(base_->calls["get"], 0);
  EXPECT_EQ(store->Stats().revalidations, 1u);
  EXPECT_EQ(store->Stats().revalidations_saved, 1u);
  // Entry is fresh again.
  EXPECT_EQ(*store->GetString("k"), "v");
  EXPECT_EQ(base_->calls["getifchanged"], 1);
}

TEST_F(EnhancedStoreTest, ExpiredEntryRefreshedWhenChanged) {
  EnhancedStore::Options options;
  options.cache_ttl_nanos = 1000;
  auto store = MakeStore(options);
  (void)store->PutString("k", "v1");
  // Update behind the client's back.
  ASSERT_TRUE(base_->PutString("k", "v2").ok());
  clock_.Advance(2000);
  EXPECT_EQ(*store->GetString("k"), "v2");
  EXPECT_EQ(store->Stats().revalidations, 1u);
  EXPECT_EQ(store->Stats().revalidations_saved, 0u);
}

TEST_F(EnhancedStoreTest, DeletedOnServerDetectedViaRevalidation) {
  EnhancedStore::Options options;
  options.cache_ttl_nanos = 1000;
  auto store = MakeStore(options);
  (void)store->PutString("k", "v");
  ASSERT_TRUE(base_->Delete("k").ok());
  clock_.Advance(2000);
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
  EXPECT_FALSE(cache_->Contains("k"));
}

TEST_F(EnhancedStoreTest, TransformsAppliedBeforeServer) {
  auto chain = std::move(MakeStandardChain(
      std::make_unique<GzipCodec>(),
      std::move(AesCbcCipher::MakeWithSeed(Bytes(16, 9), 5)).value())).value();
  auto store = MakeStore({}, chain);
  Random rng(3);
  const Bytes plaintext = rng.CompressibleBytes(10000, 0.9);
  ASSERT_TRUE(store->Put("k", MakeValue(Bytes(plaintext))).ok());

  // What the server stores is encrypted (and compressed): not the plaintext.
  auto raw = base_->Get("k");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(**raw, plaintext);
  EXPECT_LT((*raw)->size(), plaintext.size());  // compressed before encrypt

  // Round trip through the enhanced client returns the plaintext.
  auto got = store->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, plaintext);

  // And a cold client (fresh cache) can still decode from the server.
  auto cold = std::make_shared<EnhancedStore>(
      base_,
      std::make_shared<ExpiringCache>(std::make_unique<LruCache>(1 << 20),
                                      &clock_),
      chain, EnhancedStore::Options{});
  auto cold_got = cold->Get("k");
  ASSERT_TRUE(cold_got.ok());
  EXPECT_EQ(**cold_got, plaintext);
}

TEST_F(EnhancedStoreTest, CacheEncodedKeepsCiphertextInCache) {
  auto chain = std::move(MakeStandardChain(
      nullptr,
      std::move(AesCbcCipher::MakeWithSeed(Bytes(16, 4), 6)).value())).value();
  EnhancedStore::Options options;
  options.cache_encoded = true;
  auto store = MakeStore(options, chain);
  (void)store->PutString("k", "secret");
  // The cache holds ciphertext (paper: "data should often be encrypted
  // before it is cached").
  auto cached = cache_->GetEntry("k");
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(ToString(*cached->value).find("secret"), std::string::npos);
  // But the client still serves plaintext from the cache path.
  EXPECT_EQ(*store->GetString("k"), "secret");
  EXPECT_EQ(base_->calls["get"], 0);
}

TEST_F(EnhancedStoreTest, NoCacheStillTransforms) {
  auto chain = std::move(MakeStandardChain(std::make_unique<GzipCodec>(),
                                           nullptr)).value();
  base_ = std::make_shared<CountingStore>();
  EnhancedStore store(base_, nullptr, chain, {});
  ASSERT_TRUE(store.PutString("k", "vvvvvvvvvvvvvvvvvvvvvv").ok());
  EXPECT_EQ(*store.GetString("k"), "vvvvvvvvvvvvvvvvvvvvvv");
  EXPECT_EQ(base_->calls["get"], 1);
}

TEST_F(EnhancedStoreTest, DeleteAlsoRemovesCachedEntry) {
  auto store = MakeStore();
  (void)store->PutString("k", "v");
  ASSERT_TRUE(store->Delete("k").ok());
  EXPECT_FALSE(cache_->Contains("k"));
  EXPECT_TRUE(store->Get("k").status().IsNotFound());
}

TEST_F(EnhancedStoreTest, ExplicitInvalidateCached) {
  auto store = MakeStore();
  (void)store->PutString("k", "v");
  ASSERT_TRUE(store->InvalidateCached("k").ok());
  EXPECT_EQ(*store->GetString("k"), "v");
  EXPECT_EQ(base_->calls["get"], 1);  // had to refetch
}

TEST_F(EnhancedStoreTest, NameDescribesLayers) {
  auto chain = std::move(MakeStandardChain(std::make_unique<GzipCodec>(),
                                           nullptr)).value();
  auto store = MakeStore({}, chain);
  EXPECT_EQ(store->Name(), "memory+enhanced[gzip]");
}

// --- TieredStore: any store as cache for another ---

TEST(TieredStoreTest, FrontServesRepeatReads) {
  auto front = std::make_shared<MemoryStore>();
  auto back = std::make_shared<CountingStore>();
  TieredStore tiered(front, back);
  ASSERT_TRUE(back->PutString("k", "v").ok());
  EXPECT_EQ(*tiered.GetString("k"), "v");  // miss -> back, populate front
  EXPECT_EQ(*tiered.GetString("k"), "v");  // hit in front
  EXPECT_EQ(back->calls["get"], 1);
  EXPECT_EQ(tiered.GetStats().front_hits, 1u);
  EXPECT_EQ(tiered.GetStats().front_misses, 1u);
}

TEST(TieredStoreTest, WriteThroughPopulatesBoth) {
  auto front = std::make_shared<MemoryStore>();
  auto back = std::make_shared<MemoryStore>();
  TieredStore tiered(front, back);
  ASSERT_TRUE(tiered.PutString("k", "v").ok());
  EXPECT_EQ(*front->GetString("k"), "v");
  EXPECT_EQ(*back->GetString("k"), "v");
}

TEST(TieredStoreTest, InvalidatePolicy) {
  auto front = std::make_shared<MemoryStore>();
  auto back = std::make_shared<MemoryStore>();
  TieredStore tiered(front, back, TieredStore::WritePolicy::kInvalidate);
  (void)front->PutString("k", "stale");
  ASSERT_TRUE(tiered.PutString("k", "fresh").ok());
  EXPECT_TRUE(front->Get("k").status().IsNotFound());
  EXPECT_EQ(*tiered.GetString("k"), "fresh");
}

TEST(TieredStoreTest, DeleteRemovesFromBothTiers) {
  auto front = std::make_shared<MemoryStore>();
  auto back = std::make_shared<MemoryStore>();
  TieredStore tiered(front, back);
  (void)tiered.PutString("k", "v");
  ASSERT_TRUE(tiered.Delete("k").ok());
  EXPECT_TRUE(front->Get("k").status().IsNotFound());
  EXPECT_TRUE(back->Get("k").status().IsNotFound());
}

TEST(TieredStoreTest, NameShowsComposition) {
  TieredStore tiered(std::make_shared<MemoryStore>(),
                     std::make_shared<MemoryStore>());
  EXPECT_EQ(tiered.Name(), "memory<-memory");
}

// --- Dscl facade: loose integration ---

TEST(DsclTest, ExplicitCacheApi) {
  SimulatedClock clock;
  auto dscl = DsclBuilder()
                  .WithCache(std::make_unique<LruCache>(1 << 20), &clock)
                  .Build();
  ASSERT_TRUE(
      dscl->CachePut("k", MakeValue(std::string_view("v")), 1000, "etag1").ok());
  EXPECT_TRUE(dscl->CacheGet("k").ok());
  clock.Advance(2000);
  EXPECT_TRUE(dscl->CacheGet("k").status().IsExpired());
  auto entry = dscl->CacheGetEntry("k");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->etag, "etag1");
  ASSERT_TRUE(dscl->CacheRevalidate("k", 1000).ok());
  EXPECT_TRUE(dscl->CacheGet("k").ok());
}

TEST(DsclTest, CryptoAndCompressionApi) {
  auto dscl =
      DsclBuilder()
          .WithCipher(std::move(AesCtrCipher::MakeWithSeed(Bytes(16, 2), 1)).value())
          .WithCodec(std::make_unique<GzipCodec>())
          .Build();
  const Bytes data = ToBytes("data data data data data data");
  auto encrypted = dscl->Encrypt(data);
  ASSERT_TRUE(encrypted.ok());
  EXPECT_EQ(*dscl->Decrypt(*encrypted), data);
  auto compressed = dscl->Compress(data);
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(*dscl->Decompress(*compressed), data);
}

TEST(DsclTest, DeltaApi) {
  auto dscl = DsclBuilder().Build();
  const Bytes base = ToBytes("the original version of the object");
  const Bytes target = ToBytes("the modified version of the object");
  DeltaStats stats;
  const Bytes delta = dscl->EncodeObjectDelta(base, target, &stats);
  auto applied = dscl->ApplyObjectDelta(base, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, target);
  EXPECT_GT(stats.copied_bytes, 0u);
}

TEST(DsclTest, MissingComponentsReportNotSupported) {
  auto dscl = DsclBuilder().Build();
  EXPECT_TRUE(dscl->CacheGet("k").status().IsNotSupported());
  EXPECT_TRUE(dscl->Encrypt({}).status().IsNotSupported());
  EXPECT_TRUE(dscl->Compress({}).status().IsNotSupported());
}

}  // namespace
}  // namespace dstore
