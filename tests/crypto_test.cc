#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>

#include "common/random.h"
#include "crypto/cipher.h"
#include "crypto/keyring.h"

namespace dssp::crypto {
namespace {

Key TestKey() { return Key{0x1234567890abcdefULL, 0xfedcba0987654321ULL}; }

TEST(CipherTest, RoundTripBasic) {
  DeterministicCipher cipher(TestKey());
  const std::string plaintext = "SELECT qty FROM toys WHERE toy_id = 5";
  const std::string ciphertext = cipher.Encrypt(plaintext);
  EXPECT_NE(ciphertext, plaintext);
  EXPECT_EQ(cipher.Decrypt(ciphertext), plaintext);
}

TEST(CipherTest, LengthPreserving) {
  DeterministicCipher cipher(TestKey());
  for (size_t len : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 255u, 4096u}) {
    const std::string plaintext(len, 'a');
    EXPECT_EQ(cipher.Encrypt(plaintext).size(), len) << "len=" << len;
  }
}

// Round-trip across a sweep of lengths, including the short-input special
// cases (0 and 1 byte) and odd/even Feistel splits.
class CipherRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CipherRoundTripTest, RoundTrip) {
  DeterministicCipher cipher(TestKey());
  Rng rng(GetParam() + 1);
  std::string plaintext;
  for (size_t i = 0; i < GetParam(); ++i) {
    plaintext.push_back(static_cast<char>(rng.NextBelow(256)));
  }
  EXPECT_EQ(cipher.Decrypt(cipher.Encrypt(plaintext)), plaintext);
}

INSTANTIATE_TEST_SUITE_P(Lengths, CipherRoundTripTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16,
                                           17, 31, 32, 33, 63, 100, 101, 255,
                                           256, 1000, 4095, 4096));

TEST(CipherTest, Deterministic) {
  DeterministicCipher cipher(TestKey());
  EXPECT_EQ(cipher.Encrypt("same input"), cipher.Encrypt("same input"));
}

TEST(CipherTest, DifferentKeysGiveDifferentCiphertexts) {
  DeterministicCipher a(Key{1, 2});
  DeterministicCipher b(Key{1, 3});
  EXPECT_NE(a.Encrypt("some plaintext here"),
            b.Encrypt("some plaintext here"));
}

TEST(CipherTest, DifferentPlaintextsGiveDifferentCiphertexts) {
  DeterministicCipher cipher(TestKey());
  EXPECT_NE(cipher.Encrypt("plaintext one!"), cipher.Encrypt("plaintext 2!!"));
}

TEST(CipherTest, CiphertextLooksUnstructured) {
  // A crude avalanche check: flipping one plaintext byte changes many
  // ciphertext bytes.
  DeterministicCipher cipher(TestKey());
  std::string a(64, 'a');
  std::string b = a;
  b[10] = 'b';
  const std::string ca = cipher.Encrypt(a);
  const std::string cb = cipher.Encrypt(b);
  int differing = 0;
  for (size_t i = 0; i < ca.size(); ++i) {
    if (ca[i] != cb[i]) ++differing;
  }
  EXPECT_GT(differing, 16);
}

// Known-answer vectors: ciphertexts pinned for two keys across the Feistel
// split cases (0/1-byte degenerate inputs, odd and even halves, partial and
// whole 8-byte keystream blocks). Deterministic encryption makes ciphertexts
// cache keys, so any change to the construction's output would silently
// orphan every cached entry; these vectors hold the output byte-for-byte.
struct KnownAnswer {
  int key;
  size_t length;
  const char* ciphertext_hex;
};

constexpr KnownAnswer kKnownAnswers[] = {
    {0, 0,
     ""},
    {0, 1,
     "d6"},
    {0, 2,
     "4a46"},
    {0, 7,
     "c76a0f37699c12"},
    {0, 8,
     "091aa672d97c2bac"},
    {0, 9,
     "eb6b7bbbf23f23bbfa"},
    {0, 31,
     "228bed831f2330fba95b903a1b1f1f6431fda5e208986cc7d287295f0a6d4a"},
    {0, 32,
     "448d100c5d872702f9dd73bf6f0fc55de2bd20efaea75ad13e0d8c105a958cc4"},
    {0, 33,
     "16d029e31101c4f008f13cdc3b64aaacf7ac5fa136c39ab9f5ac519283abfc74"
     "07"},
    {0, 64,
     "2fcdc40a9d06b989d029b36dbf962f674131ed36081243831e3bad94735e2319"
     "9e66dc620f494861407a766f8d05190bee0eefb5005d20297d3b589e282cd37c"},
    {0, 330,
     "6b699f618cd83d5729d84e112e75afaf4ff885c129afc7281bd0b4fada0b6b99"
     "d64a6e592d75001bd367e579dfb1f3bb62453b8219c3792d57ce79e7395d44a9"
     "929fd94d2eab0ca330bcb22d075cd2d46cca94b6c9b194bd6d11e1b989a59e58"
     "2610626a6e32ae390dda6767edcee8b1471a81bec666cd81d51119271d09c41c"
     "691c20b1be2f3fbe2d3b2a69803e3e3461e84a54b0cfb3457a446398c19fbfcd"
     "ca316115b63a1606171ddc30fafeadcbae7f6d208b3c33f7090fd53bde8ca5bd"
     "2f0d91b99efe55fa79362b19c06714a22abe6bb120c1f224c271e1de2096eb6f"
     "f6e0320ef6c40964a1fb317a069a5f77eab2eae28f2f0c445728f3d583366cf7"
     "523c7ecc454358e41ce2d845f98e47287c1512e08877ac47baad7ce937b6b798"
     "08b72f2e3f207669ab152c30a2cb095a6446628589d93cbbacca9cd81e0ccf24"
     "6c86a94c4503432b8aeb"},
    {0, 4096,
     "e3a035e88de1d41741e9b1f52715f4dd9b1ffd96e4be8b30449043ac8df20a99"
     "bd7c0c1137d5ad3a7b3d73f220301819caf5bb57c13f7ebe6f89b96f0b90c72e"
     "8de8a18d743dcd0ba2b1d1ee5546396afde92adaddc183be83153b05e2f73332"
     "3c7e686a83f96750bc63942615dd787f06da2cc38d71b5d665a299c78efcc703"
     "4dd0b9b1bcab0b5be07aa44d4afce496aec59f9723d7dacae26f0cadde9b48e9"
     "5609e3ea79ed37a7cd0be32dd89d1334f4ba55a5212b9b620bfc49b74abf31ba"
     "c9e99e2a52a3aa34b0c35d2ef6ee0fe44cb77e557a0f10b499cff3401dd70013"
     "c3d6c98651a9eafc19ebdbd656457fb920b3b858069329c08cc32133bcc2a780"
     "f019dff7c93a9a6ff8503a32d6c399d11f3fc8b14f04b103948644524e7b5dba"
     "a93ec42b962ffd92ca04da9f6ce7681ddb6b200c2bb3217789850cfa08872654"
     "34dfd7cd3a34a9564f73b8d2bffc70ed7c70aa2d247d52d543331520b5eabb9d"
     "61d37f1e16ca63ca45ba67c753cd1743b04a792d6a096b235d0ad6bcd1e544c6"
     "87f5fc7cb6579e80cff0dd46d8454429327975d5ba9ed06fff792a21af09a060"
     "0932b5500c2354c82e92b3b2d8240bd8f7ed0ca4a8af2e610378208d3c74c7ad"
     "20cf59015c9b4aad183d600761ea21d232dd1a6b135b25cea0cc181ac8eb9bac"
     "a17c048591c59efbe0c66db9f1c24a210cc25bdacf6e91d609034478cd7ef04c"
     "c5ae86fa39440545d0287bdd01ee0de30418a4f0596f432c69d13dc62028f8a2"
     "562e756c09222b7dbd083c690b5e55867d4f59b0eadb58595a843d30d549d1fb"
     "3ee2a202c12125ee4c1c2834a7c96c0c99e8c7d6c94e25f262bfe041a6585ee0"
     "e53dbf9ba38891ed1aa4869e37835b3f26057bceea8ba625d8276b46cec0df0d"
     "bec639117addc6ee90546d140f7867aa9633f75f966a10465e93f3afb091ba1d"
     "fa0cb7b57340e4c77fbb585669df4fc9ee8cd72237168dcb699d6b4cbd7742d2"
     "890ffc720d55b74c3b084c78c30e24080d5215d23603f3c97dc2353aba5e8d49"
     "9ae3dedab4d41f0fae3338c810cb501b4a0112a2bfa96e9d480fc2524d39c8d1"
     "775830492bf34ecd1215a9433ce11432712f703033f342f90b6cbef00af98574"
     "24c0d0f7a0d4a629a71e2669c6b05f3ee0a920fd4a4ce287271965cb013fd6fe"
     "895b8e02eccc9501de4c1235948d3c8f9ab29cb9b799e5ea3efa4325ec092649"
     "f9d98277431227608844a9d58e27a4ee837feaf8fac6ea3e34491eb42a22f0c3"
     "5cef4ec2fdb3d919dfcc8e463088ae6b66ac5c8893eb63f3a14ab443f8e8e030"
     "ecf35d8a24442fc45921e0291a5ffc0481f18ecd08f32243223c787cf3c3d7ac"
     "f081f2a314d279f64c838da303e837a5926c33463233db3584569e4bb14d0af0"
     "1e48b1bf0f57860ea6a01bcb1761b5b23cea8097c2df9460ebf834598f4e2028"
     "41557c7277a4ec86063a54c29da11d6f32179bb4b11648ede814fd592c94f61c"
     "d40f81c5fc5f6b05a419ff87b374840c4bb8b89b76acde308ee34b8cc29ab2a7"
     "fa1845476a86b2a4dc472deedccec1ee62b6261a2246aab90a69224e05e836c2"
     "81f716451a052a570097774cab0303b4bfbebda5154d68c3a5e9a43ba76d80a7"
     "3d1502725ea88de7e5b3cd3b905cbf2a061f163140e98eb1cf8791cfb460a3ba"
     "a86e9fa92e3549579bc94004f06bd1fd8a8489871322db6f203f2cf4bbdf560f"
     "b43c8eba0e16d402aa5411afd24f9964527118407b64c9876e3fe4178f889a33"
     "50ef701a152ad6e92263491592a3a89827a63c4696db716b41999e0e7deb9179"
     "1bccf56f4030f42e71091ecb7ba0b6749e0af65ba88bfd5b9ea569784a9d3b89"
     "d64231814cd32afed11fa893fc7b8f962997b1bf113a12a2da9b033b1dce2085"
     "80a7d8307162a969f78b3ee6b4981ad6379164c8998917b70398e1f9813fb4da"
     "b9ba73671324582123599a5dbc94f3141b3b144c30ce49f32d12220bd134d383"
     "3f89e007b74661b1b80c70a9955982dd8c9e1a8821cb767134edd42f2042219a"
     "e6c1bf03ca5931266817ad2bf4290c1d352a3b3feb8ce4216c7bf72b00229274"
     "91896e722037e21c0e9a4ce2fad6a9a116a99be1f3b986f16de46705a01db9b2"
     "ca052a6afb850173c86dc6a89601bee399fa70b108a629973a07c8aa7e3e003e"
     "dd3526d6973a0b46b0b6278207116c50c2f75250e06526463a7afed5bb3f8901"
     "432976bc90d1cca50750e322ac59c39b12449b3e1d018d95658d7f49f51d427b"
     "d3dfc09f60da7ed84434396a7d63050d27f55e93441675dcd278b5f23719690e"
     "71b82efc3a160d651797d246090981932f2f8eadce3aaa2c9e39e35ac88e988a"
     "157b00b6bc494fb3e9a3901fbf6f25df6000154e819e5d51e57ec9126f71bbb4"
     "c214e598216e2b97504144dadd3a8da1230bc08e71ccf8bce8e838c2b974c3b0"
     "2081f0705d49c24087f0040878421e520695a5b10d67b8433a79facf4cb759c2"
     "54bf2b2aefa28a70c01164b8bb10a1b2e09b72e26b7531c54a0d1cd1c34e0b5e"
     "9634700d1768684bdd23a1a5c492ef90086f798eb5ce63d4b41001f34c01e066"
     "5135080bfad02c2e7f452e20bb35e638a232df2d77e87c7e5165c6278fdf58dc"
     "4c1b1e7d66d88a1487a142f6f6b1979ff97e57a47dadfe9cccd6e41dc8cb59f6"
     "ae0ad03c8342bad2a3c1e230cbd937e8382bec693ba25dc8de4681c1b152e32a"
     "4c025a20f6985cfb9464a55a1fe4742ec21b6eb9db2fa1f9480f8ce1590bcf26"
     "9153046261f2a93c9a063487d7f3f5e5ffd2db274012ec4413c07cfd531c794d"
     "0b1c52f076a5c3b07579e3f4d36dcfc9fbf28ad771165144919390b12a2e0b1f"
     "9092a3576a6b260ebd31cbdcbd8d783e0966003ba61af37ae22c1002a8e25b1a"
     "140fa8ace1f01bf5b61769d3e13587cca2717bd69517700686a38a8c75d32de9"
     "4358bd08ef86e9ed722d1159d6fbaaa380020460a37d8d7f0a200942001c9ef9"
     "5f699d416b7fa8d7f44a9fc592597f25a860cd17e0ca10b80e2e3c6e78286753"
     "d0171c3db55b8376a5345d3b4439c5e73a78d33ecbb72ca78382134d084cd461"
     "76b064f37802377002386bb6267d09f560c97ad7b829bf527246161dea70ae4b"
     "6f23e3cfef21994cd128fcfaa87d31b09fafffcb7e18d674e346e6199109cc2c"
     "194d6d7f17bed111965ad6154236b550350f705e1c51ea3b0fcaf2a1dd8173be"
     "236d939b9f26745bca07fa9790837315a7f697c8dc04e52256b1e0c1b0c2269f"
     "5f4b0c33c6c813afede0f6487b57e411d19ee265a986a8d3492c87e93d7f261a"
     "d6ff3a6a5723c2fd1bd957103a5777660c4f4aa5b4d3e3f963606c96a891e83f"
     "26ed0db554877eace9599147e117cbf00c9f7f8265c7c97b65ec13d5bfe9bef2"
     "86d9fc21a0444d5e6afe59b4510168b8bcd743b54c7b3c30ccee97ebf7cb9497"
     "f1ae6ce0f7abe5d8f84d06e98c7426b34c6c306cf0ef2e2705f59bdecff872d1"
     "c3ef31d007a48975e0763b06dd58bde64b6b2b6f6e46267847320ce99dd0dbed"
     "4488c8f95c071ec794b6341b6308502d6e65ee1e453b6ad80e92b075f19fedcc"
     "77ecc1f2b2358a1b578820ecc591183759c9484cee603d57b97e632513370d46"
     "a12e7029dff1f91515d7898c6412abdeef8e3234ab57ab1c3179eb6634a96358"
     "e80f48a0ce5485a226dd3588d90d884454624c55d736ba4d5b67a62090bdb0be"
     "07af1401ec5ea49f694847cd5bc948a4dda702ae92b62c645dc038dd72be4802"
     "9df8941567fd0d8695529297ccb55ddaa54606f6a134be5e312a7650efdda36d"
     "7cc92b97f408da2826930cd1fdfb191c6cddc453bc13efe81c256b5f7ea2b3df"
     "547fcaf961aaffd0b5d6e3c8809b57b2621ce60bba34e5babd91adf760f18d60"
     "39b8500f55be9038d3cb29c6d4be631c34459a5dce617ab966b56ce598d11cde"
     "75c3ee480608863ec0b47d2e221be32abb5345fe3d6109c32b5325d590d2b6ec"
     "35966775070273a3a4e879d65be40dfb6529751c2a87fdffcf6780ce1afbd32c"
     "142761097d031df03390190ebf83a05e8ee15d90d92e7ad381d0466542df4ca9"
     "a47b0d94bda0f5437ae7c99a90026f589b5ac23a27b67d66ee14d5db48203bfd"
     "e5c2647ad85ec9e7dd29979c8171f35a66046403cc02f14d3c8cf1a357285558"
     "0ad110709a183437d4bca3265478f3740be299bfc30586a840fa3d09f5fdae92"
     "53b18ecfa562d10e7bacfe7d529c6b00a00262fb01cb740113cab0d8a0a96623"
     "b27d7ae928eb79cbddf5050d7810abbbe5dcb39cddfa3a731aa5bd0bbf905671"
     "e864bf9de476bfd415dcf7017e0a29b9687f14417a339d2e0205d6b1d0e65a5d"
     "1378a5674ed843e9ba6e1f962b498852f831afb9a557fa0103d14ba97dec3d98"
     "8b87cbd1396e8c31873fe11d4e8b48fbfbc433459ea0878c6d1b395afcac657f"
     "c258edcde7c2f5017556277be3bfd21e262f082a69064868cfcfe00bb2bfc561"
     "cf0f619ef05d27d86f4abe268a38c33f26a0c7dc7d103f4b08e9625ce3e99c49"
     "e7970902800fbf8e19499c406e2f07883ec711fc3e431537298467d03b5f16a4"
     "da22c06c92ab2dc213a2eb855bced5695a93dc9f653dc0449855d35047a82b34"
     "7869ffb94a762aa020b9e66b4b425ecb19a9823c22d64d7b5b1127cc53d0675a"
     "f75b858b76b74dde605f8967e0dc5099ec8750686e66894f5f8ed40540d7e46a"
     "eb09e617247cecea696e61c99ddc3c022b8d9fb187bde52614f6f0906630e5b6"
     "7c500e0c3e49fa82026981002a1cdef932ea26e09a1d518fd011f9f7a9d2a32e"
     "7bc0e7dc9a7b0b2ad6fe9ec8e3947fb4341184ec168da47c49ff893aef89dbf1"
     "c75da8ef311a84f3fecd8f15cbf080c0a6f185f337d93fe4faa2c5f9f5db208d"
     "428054ca2b19f278c4b8ee3488ba065e0583573561e5f7c739ab2032c9f5d234"
     "46a680eda13cd0f2a08b6bbc555f75adee80f72398429a97ea707c569ebb196c"
     "4ab0ac0e0d08ec9a62502ad741f3239437baa64645e80161d5927347232c9473"
     "d310a5ceed73ddbdeff3be7a8234051072187b75cb3555c8887c2813528a7ab9"
     "e2d203a3651632e6bd38537ab18e4b15143fcd8d610928275e8ad6bae7bc41aa"
     "ee702e2d72611ee049326bdb59850cb4283e457302c706b30dcbb8b731abf3d6"
     "912b453ab6d3c51a5c320ec0025b03d92686715a962cc0caafe02d5dddcfe968"
     "0b4e1fc4b6e2b2cc74e9134d81c33ce0134f1835788be76d31c249ac3c0bc60c"
     "c5641dd3894f79eafc0ebcd9621c4da66fb8866b1a458cddc0524ab21652c4fc"
     "b3f75494b04d21152b67a0fb083734f7960926d32f5685112d592dcf624abfca"
     "8d000a4c21babd9c94808cd07fa9f3bdf907108fa3398049404cfb5b1e992d11"
     "91020f9167418fcee7c687f5428a9da52f83bb99bda7ea029522656014855305"
     "72788f4618fcea7ae891909e77c3ec6c783a1b6fa0d9f9d23c12855da450b8ac"
     "1de1c89ec52db0d8b147348c7de14a59e3e0416d2e1e3ae875bbdf3316b3cf92"
     "5aa81a3132eb63b76e9a05c96a570833dd3ac031095e40fe2c5bc8bb69695ae2"
     "73b292b5ef4f7909a8e36f67f29954efd423c3a5252e2ac83024468127d41197"
     "5347bea3e3269b70bc134c03be0f4649a78fe4f315773e5a61825f1435ebb300"
     "2831f63d2dd89c306eb5a7fbaff23132491d525459908959cb9bd8de5b690daf"
     "9707baa545e549fec63d4cdf8059173033b6d1c357d9fa800c19fe2e6f8449c9"
     "53b0fb3e7be6a54a6421670a0a1eacc88b5da52a982cd8b315370d98aaee7927"},
    {1, 0,
     ""},
    {1, 1,
     "4d"},
    {1, 2,
     "f782"},
    {1, 7,
     "457ad2a49ea76a"},
    {1, 8,
     "25c82afe99544d79"},
    {1, 9,
     "9a3ac2153752031e3f"},
    {1, 31,
     "7233fc8107079f3aa051f6affadc6286fa276103364bc3d553ed155a8d8202"},
    {1, 32,
     "e6a6b803577f5a18b0c8e912e201a787e4e506cd43db7421bdbf4e7677ff05f7"},
    {1, 33,
     "1eed36ac795d8883fb5e0f9cc83cc3b4ec501bdf9341e3aa108ca0a9ca811a18"
     "be"},
    {1, 64,
     "131191db9cfe09efdc50ee77c1750d2c5449890bc5bd28eb14545a0a2a3ab3c6"
     "56bb907d3b3cc6a66f2a6a2ae3b85ea440439be7f98c041d76c2f70fcb4408d6"},
    {1, 330,
     "998c519c3218bc124d72b5e1b113302a44afa47e10908d5b6f37c07966ecb192"
     "59820bb1657b65bb1bcac9115c8757e2a76bc2a1c2598bc671067eb97d68f925"
     "0ac08091f1a252e934dfa548d615d2177f796409d8aec5887994cee24584f695"
     "1acaf82f2a58583394f994f2a450f40fb0feab459f146d02899085567c0d54f6"
     "895fdc83b52183bf5d2f8950e676f2ed44066e19f121c8dc4b3050fb97f76334"
     "df8b940be5187e8957662ab557f1a43aa93f92f5c9a7646f5fca6f662d6095b1"
     "ddf5f5d222937e2b823289c3e576fb4e728866f7c3c78d619bbc8dd0743368a7"
     "c16ea5ffc69ee36102c107e2ff4b5cd06a98f662f729dad9bec94eaa6124dae7"
     "131ff6234109709d0b6839108a2632deded9b7b6fd5bfd87f0b7f51347c727fa"
     "b1e166feb3dac4e238928464348e2bc40e082d431442358e40a768fd36e09ab9"
     "027d68c1d6b2a2509493"},
    {1, 4096,
     "b625069744197719ac94374f391b28441da6c04b5aefabecf17273ee0f955261"
     "b5a5f3214d7a6b35cd11e40f02242e1e1475128f471d9d044c689b186ef0b89b"
     "fdfdf119c721032b188901759cd37f61b4f7d8d64159abe9434e9a1b7026d541"
     "5e429ccc7e7afaf1a3c8764590c71ee8a38b0cd24568fb3fde5f5c756a755c1b"
     "a75f0036c931ae2969157dbed941fe2aebd829dbd1edee606bc2956d05a068cf"
     "1d6a0b4ece03b7b9e7236927773c4dae9e3bd28e1fb46536ba7744cdc6f3d7f8"
     "e9cf6ee05a615295776bb8ec55f7f2836777916811d9e92b684d780fb6c9f585"
     "7f68b78448b63cb32137a0f6a3a7ba2f1ae94b3cc212d8da1fa033ff3dfd1623"
     "74a8456563f946246108ec627b8901cade62ad3c94316af9db8de04311af4f02"
     "be66dc141e0d27bcd85bf0597ba11dd7191babc13cb0d8e0c81639d17b566a45"
     "2a9e0e10633f199e853f143ea4e52ea3691fc25f8574bf085570dfa14c190340"
     "d00c246f33b842196877253912bdc3cd9ec25211c129553fa4b5d1f98f99f9c6"
     "44f9fb90e398b9acf79f0f83450c9e65308072d0c77f34198db3b7ed815bcba0"
     "d56e38c0e2841420433c761e3bfbd6955fc9b7a8fbab8578f920b04813ccddd8"
     "0baf5f4bedf5914868c0562cd48ad6fe740e3db88baec135a889c6a4e6d6b839"
     "0686f97be802955057bf25ceedbc59927001d390d885abc70c2ba9737f2d4144"
     "314bbecaa7c10e27d0f067d355ed99116f1497dac529715d700699602aecf173"
     "d478dff71a2395f4d76b5b0785f8d0241ede873bbadb93753d1b99ad2975f90c"
     "7a154dd2e32d2296943736197639219daebb5079e8ce7a67a899afce4154d9f1"
     "4bf7e0026203118ffd3650834d918943f975ba51d6086792e99d8f02605d459e"
     "c7af1e7e89baf04126c7e01d9557470094a8e1d44851dd282de9fb958bb5d819"
     "87fbf04a55420d6683658c090e779530b6bbfb07a26ee75234c8e6b6de3869da"
     "feb42c9f8f06bd4af42a14c31b59328800c7e50ab94d860de44a1f2cf74b1e52"
     "fe0da18a5f299b4d54b0ed674cd4347dba93f60ad198108d9babbea0fc850c8e"
     "c5d7bbdc4316f8232833b1947a4a594a64becb41c28555396b39e91edb84ee72"
     "41832eba25ac63980af6941f91bee44017e003ea6d7ad5df129e51cff59c8d26"
     "74bef37c1ca203597dc71448769c0af1acc2ac3154638753a84b99e5f856205b"
     "1cceb8bfde2fbcac781b329174070be990c6b62b247a4577be0b9f4c58782691"
     "133b0c978a9363c4c0a1a6bfe27a9ae3e83b8a4e4ff469c7eb358017f1d46912"
     "95fa72b31280dd1fb11c5273170c138ea34b80eb9ad2f8ad24539974ff5715c1"
     "242dcc6f78851d6c6c0baca2434b99351765c9c2bdbd96c935e292ecd8c6ab2f"
     "f1c1fa0b8b8382db4ec79cba1c16c34e2fd58b44d0d595f51623cf36fad631a8"
     "baedcd9350f3219ccd31c73660b60a6a734d210d16e605e466c80b0a8d72dd46"
     "c412f5fd5ac2e7076f0fa15af7b86d71497fe42d0550a72f02be3903d285f4d8"
     "75b54e3d3ec90f45fc9d2ea95bd3573042f759e6d5094a4d0aa8dcc8e4085e88"
     "29088ed6ecd7abbb89b59d008c590ba0c047faecf23539a9b620e212ce2f9ba7"
     "6288b4f5ce215dd2fb5f283d6e5bd678a7a775dfc88f721bed2fd5557c8b333e"
     "c03228b17547966642ab396763838a10461d9d981a69133759515d0524086e2b"
     "fe0ac23fd997bc60d047ab1f95e0eee5afab04e21a041d5c323c403d5e9f4f0e"
     "693582ec10ba8c05b57e47aebfd4b6f591bad1f13ec3d56781dc549d793a91cf"
     "4954656395df6c87668f5f51e301699c6d549b6684d0ba2264d75d2d8da32ee2"
     "1ca080d35f8ffa942ea07f8868b6661ce3758b4c60c243b91d19eaf4fd45a144"
     "4b678ccef7a412a18a1142972aaee32c841e64f9e73a1cc3cb646b107dfcdd20"
     "fe4aff00a54ddf55c503ed0f53e43be3e19f8c81d4a75533c1b6abe637ce133c"
     "d88d0e15a7ac2b28308d790efdbce5141f6204d90cb7da07a5925e1323fadcf6"
     "fbe6d87e167494dbafa720c7d376f9452b598dcedb228b9900d6b0aa4249ccc7"
     "71cfebcfda9232cdb62d183217435006e31170d3173217ece41d9ae680006572"
     "070e89864fb88ed394d0cf5b1237409568bbf5ca829da1998f7de08f8913f575"
     "8564db517ba1575fff70bbf4f46ac22677fe9bc5870ba72f27b6b50ed79de8ce"
     "500cbed761067c91bd705277ef8489e00f6b565051ddf90a8ae7a58c662c9144"
     "c2f2a8cf952a5ddd750d71a8d00a8c53c961f921e0bd605a0f6b49dae0bb4e1c"
     "a567b1786457b169cff9f4b128f4b4cb0ac98f67f114d0d9d68c3c668c20e979"
     "1bd0031a629a20f48369c505f6bf75e91292dc066d580d7a06c9a290ed7adc77"
     "97f99674c68df6c021c31c326a45e078ab6f135f551542e512a912aa3d8498f0"
     "b0152545eef4370cddc236658ce9734cf64c7408fe334b1d3290b905812fa4d0"
     "37969e24c956090486760c8fc2f32ab5e56f45664b2e72c1999a10a21b9f2303"
     "2c10f387d6e365a90e82d830008243c4c157d14803278b99e1f3cc5619dec894"
     "507ec11b88dcc44b21043710311d0dfe8c16ec8097d64e339a314ee2de3b0553"
     "d0565565e14cadc49412da4fb375bdc69dd6b2da919561947cbf079ef697ce2c"
     "cca5dc0fd9a8e4c9e7111eabd53e67cb3e9266af3cdfcb83e8a9466f1ea9fc2c"
     "f8a76499199d0e7d75bc123b2caba66f66443d73b5e3cbc93d3135406df56387"
     "69f72935ab0bc9d15a85c7a8685420d2afdec533e9f890bd38ae982170f73a87"
     "4fa7fc1c5a5e3d1c06e43637b87e286e00ff749fa002cfd89e2a407f1c41aba4"
     "c171fba8f32b6af41b73637f3974385a67d4c129c71042b50018eea8c7b415b5"
     "abcab0023f1ffc792c4219607f403538fcd6f960e6384bec00e9da732221b2f9"
     "1a6c2b334fd3d897060bae852851d230453d4b7f7e6210eb1471b918e306a74a"
     "8acd1250d1d22957b1ec1aa73c4fc90dd62d7f4c159336f8676c0d0b215e2a25"
     "e126ab0262dfeacee51a0a570b33d5aa214bfce6e0574007824a8f569f8d4074"
     "269c8d00ea268ea867659b3282f677bac9292acd75fea6bbd61e8bc9bfd0d821"
     "9781c69a94ec53a986604363fddebbce92671e7512e5ad07ea5e993394f3cc62"
     "d6d76f441f30ed73ac98d8a9c98e0e7de78a8009c2265b635512536c72c787d2"
     "1fd65aab6ce2112dc6999e7f37a350fca521873b576a09215fcb9e4f3b26a98a"
     "edf43f1e31104e402d007241a28a2025e167c6ea16bef485f7aeebb510334f08"
     "8993af6357e4cb788d2b88120b9e2be7a1cabfba18669765624f4d9cda72030f"
     "8c0deb931937d2390bfa44f2be199380c69340117149754c4303a71107393e70"
     "c52cfa33f96e1049db5fda01b4aabc08735060ddd9332488743da4584f32a882"
     "05d1afcd32201cf83410320d4cd39ecab17186382ffe7c2969e401c8b9e55e87"
     "14b98db81ebd6b0e85f790c8f6e5a166c367f687d327c138c04926cf753defd8"
     "00af6f0e25b4ea0a3bf87ef37c2c11723f7d069a6ff6e43e43a945c4565f68d5"
     "72320b9201fa29ab1ae3c15c243fba1b56c2fd12a99bced30c0eea47c0d2055b"
     "aa4361b0b8907c0cad1200a85d0e8dcb6567c9dfe61cfa4e401d9a795bc72980"
     "d47fdf724bcce5d977e1955dc10ae8b96c9cbbb2c14d3e32f2d8269c5b136a64"
     "3602e2ad1e22c4c84101d01ad6f0c1177eb4017682759d7da7740f1a29bcadba"
     "90f17f282b69a8f6faf12d9a599fbffdc6e5f2e23266a7aa3c259047f7d068da"
     "25840f7eed87c635e090e31174efb82ea7b28553a6c2c61975607b7fbd652e47"
     "6a87eacac5d2b4be2bdc697090eba5dad4683f2d6d4a0130af93eb7423a57099"
     "3cf15c32c5fd7ce0e3a5f93bf3f9742baec8666f9abaabe3a669977853888065"
     "5ece69311f7682a6c421d6371223c3e88d1e7c46b386807ed840137f5b9aed02"
     "dedd26380dfed2113aac3fa250f89df5e634c6dd9c80adfae2227dd535f6cd7f"
     "fd3088d55031893868abb056be8cac7aa008d8e860af4c66de2ebca15504ea8c"
     "0149b1f31a6959e4471d9413f7fb3ae1fb526da950b1460a2bb26c98dc456910"
     "b42f1742d01f018aeeef45de977ed9f764b68c6bf5aa8a3657c0062d2349e715"
     "d0955a2545df5dc9429fc24ed940b63a2930b3fb982a6134dda331744a10c5be"
     "1a25f15a2eea9ee0239f90338a6a45ef269a24fc80d081d3ca4cd8d1ae14c0c7"
     "051250537fb6da563409d95ec39ce662230ad81f9351b0456e66dcd6ef8ecc07"
     "f081c25bb76dfc6167e44a6632544ecf0dffdab4dc70de53eddc4868fa056bef"
     "cbfee137ad7afc5af92eefe61428e31d18de4bdc490cdc3fd2d4421bb39df45e"
     "8e6042dcb13777cb4c1f6dec4187938e778bb72fe6cb30b9c1d5cc76a09a0e66"
     "d6c6c1c9431cc2dbee6f71cd4e6c85e2151d8ec07c3878cb742f2318cb0d5a7f"
     "d9df2b9c3c6d0261e735e5837cd8ba0b80ebe41b16b3b231ec32b174104e77b5"
     "356e982c295ef62cc5e461bdbaef4d7bd381dceb0bf2e3859be9aa0df355f03f"
     "bbe233bdec61851e12950766f16fdde1aabe448f7727380abab1fb1397f83cbf"
     "ae0a973ad54f26d2baf4895d8a28d0c2fce5acdd14e4c687ec70bfd81fae7bfa"
     "3f5beda0531019c56359d72ccd9782ada07a2589e970c135a86450c5fa52663f"
     "4e7a55e4efc4e4e753a3584c2429a1d25c0ef01e43584f54a547d7f5085e0984"
     "8791166c6c44e2792def33e11ce129a4b6ac32e66eb4c553e5cd3dc20ad2b14a"
     "7556a271cd1c4abfc43796b472e8027b9f05da4d8bc5af2c5032d81b4563cc66"
     "25b798f68037a210486c981a951e151a1820022e4545c86d5a0e39ad3643737e"
     "b792093ca9b5eb9b4bb2a4486f9d37230d162be9c9c2c8116e88490c2a82e542"
     "799db21a6495c436c86a11497de51fff818b19c6280ad3bc45593dd8f84450b5"
     "7a01c95ebb756e41f10e282de7b06990a71239b5bde907251146596ac6026b20"
     "423b913e097505d1099bed9cc78476cfd16c98a80ed91932643919b490a80f52"
     "80e3eee6a00594c90225f1e5486ca81fa4d6263220c41c328a23d115d218ee58"
     "08befd36beaa699e7eea787dce879a465155694855b0881df34108aa863c55e0"
     "41a9c197f0f7ac572415db8d79e685b269afea2f9a06ad5cf4cc54ad35cc698c"
     "2ef368ad4609426444be987b538cf4a5384e5f038710eebc7f8e9f999da361e8"
     "82eb7952d007bab3afd6b0bac2cb611200bf1f29372f9dd28c83b8c77122b384"
     "b927e260fd0f0c3dc6797f40a1de68d62918aada71a110190c8f9f11b1d25822"
     "90d4d4de4a3a9fb0e31a75aee197952889202b13c24837f0e1a2ded6b6dfcae7"
     "2d6774e90c592e6ce56ea350cbabcf917b5c5c816fcab32dbf2065deb6a458a9"
     "17e2ad2c2b736e4d26b1f79ca7b7234e2486388626b4dabc208b3a8c5ca1f672"
     "cba4fcda222551c73919f551e033f5b11ae722e3d05706daebe57f2501c8d7c8"
     "88ed50d88c86a11f84ce2449b883aa5e74e7739755a06cfbe02b3fdc5bd637e2"
     "33fac01abc459c001196c242f0b578ee0710d1708ddf66ff95820e84c14b9504"
     "787fdacd4cda8a6a39067ff5815f6bb5f29b88a6881fa525aa0699eea8c268a7"
     "29c0c167ebbee2553598c5a0a41a94af7896bc063f81af377929d953fb68f7d7"
     "cfc0416ecbca25cc5816b1d2e67dadd86af02951d3301b6ce99e73950662b39c"
     "f0bcd3f34431d92e4af67977232aa98cd0758488e3984d5369fbe9412158d7ac"},
};

// The plaintext of every known answer: a fixed byte pattern of `length`.
std::string KnownAnswerPlaintext(size_t length) {
  std::string plaintext;
  for (size_t i = 0; i < length; ++i) {
    plaintext.push_back(static_cast<char>((i * 37 + 11) & 0xff));
  }
  return plaintext;
}

std::string Hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

TEST(CipherTest, KnownAnswers) {
  const Key keys[2] = {Key{0x0706050403020100ULL, 0x0f0e0d0c0b0a0908ULL},
                       Key{0xdeadbeefcafef00dULL, 0x0123456789abcdefULL}};
  for (const KnownAnswer& answer : kKnownAnswers) {
    const DeterministicCipher cipher(keys[answer.key]);
    const std::string plaintext = KnownAnswerPlaintext(answer.length);
    const std::string ciphertext = cipher.Encrypt(plaintext);
    EXPECT_EQ(Hex(ciphertext), answer.ciphertext_hex)
        << "key=" << answer.key << " length=" << answer.length;
    EXPECT_EQ(cipher.Decrypt(ciphertext), plaintext)
        << "key=" << answer.key << " length=" << answer.length;
  }
}

TEST(CipherTest, InPlaceMatchesCopying) {
  const DeterministicCipher cipher(TestKey());
  for (size_t len : {0u, 1u, 2u, 9u, 33u, 330u}) {
    const std::string plaintext = KnownAnswerPlaintext(len);
    std::string data = plaintext;
    cipher.EncryptInPlace(data);
    EXPECT_EQ(data, cipher.Encrypt(plaintext)) << "len=" << len;
    cipher.DecryptInPlace(data);
    EXPECT_EQ(data, plaintext) << "len=" << len;
  }
  // A sub-span leaves the bytes around it alone.
  std::string framed = "b:" + KnownAnswerPlaintext(40);
  cipher.EncryptInPlace(std::span<char>(framed).subspan(2));
  EXPECT_EQ(framed, "b:" + cipher.Encrypt(KnownAnswerPlaintext(40)));
}

TEST(CipherTest, TagIsDeterministicAndKeyed) {
  DeterministicCipher a(TestKey());
  DeterministicCipher b(Key{9, 9});
  EXPECT_EQ(a.Tag("data"), a.Tag("data"));
  EXPECT_NE(a.Tag("data"), b.Tag("data"));
  EXPECT_NE(a.Tag("data"), a.Tag("datb"));
}

TEST(KeyDerivationTest, LabelsAreIndependent) {
  const Key master = TestKey();
  const Key a = DeriveKey(master, "statement");
  const Key b = DeriveKey(master, "params");
  const Key c = DeriveKey(master, "statement");
  EXPECT_EQ(a, c);
  EXPECT_FALSE(a == b);
}

TEST(KeyRingTest, FromPassphraseIsDeterministic) {
  const KeyRing a = KeyRing::FromPassphrase("secret");
  const KeyRing b = KeyRing::FromPassphrase("secret");
  const KeyRing c = KeyRing::FromPassphrase("other");
  EXPECT_EQ(a.master(), b.master());
  EXPECT_FALSE(a.master() == c.master());
}

TEST(KeyRingTest, CipherForPurposeSeparation) {
  const KeyRing ring = KeyRing::FromPassphrase("secret");
  const std::string pt = "the same plaintext";
  EXPECT_EQ(ring.CipherFor("result").Encrypt(pt),
            ring.CipherFor("result").Encrypt(pt));
  EXPECT_NE(ring.CipherFor("result").Encrypt(pt),
            ring.CipherFor("statement").Encrypt(pt));
}

TEST(KeyRingTest, CrossAppIsolation) {
  // Two applications derive from different passphrases; their ciphertexts
  // never decrypt to each other's plaintexts.
  const KeyRing a = KeyRing::FromPassphrase("app-a");
  const KeyRing b = KeyRing::FromPassphrase("app-b");
  const std::string pt = "sensitive customer record";
  const std::string ct = a.CipherFor("result").Encrypt(pt);
  EXPECT_NE(b.CipherFor("result").Decrypt(ct), pt);
}

}  // namespace
}  // namespace dssp::crypto
