"""
Tweet cleaning, tokenization, and hashtag segmentation
======================================================

Raw tweets are masked in place (retweet markers, URLs, mentions,
non-ASCII become spaces), case-folded, and tokenized so that hashtags
stay whole, acronyms keep their periods, and missing spaces after
sentence periods still split. The cleaned text keeps the raw text's
length, so a token's offsets point into the raw tweet.
Hashtags then break into words by dynamic programming over unigram
probabilities, and stop words cut the stream into candidate fragments.
"""

from locspot import SegmenterDictionary, clean_tweet, segment_hashtag, tokenize
from locspot.assets import ENGLISH_UNIGRAMS, TWEET_STOPWORDS, data_path, read_word_list
from locspot.textprep import prepare_tweet

raw = "RT @nws Major flooding in New Iberia. #PrayForLouisiana http://t.co/x"
cleaned = clean_tweet(raw)
print("raw:    ", raw)
print("cleaned:", repr(cleaned))

tokens = tokenize(cleaned)
print("tokens: ", [t.surface for t in tokens])
print("in raw: ", [raw[t.start:t.end] for t in tokens])
print("acronym:", [t.surface for t in tokenize("u.s. aid en route")])
print("glued:  ", [t.surface for t in tokenize("oxford school.west mambalam..")])

# The segmenter maximizes the product of word probabilities; unknown
# strings pay a penalty that shrinks with length, so "#lawx" becomes
# law + x rather than la + wx.
segmenter = SegmenterDictionary.from_file(data_path(ENGLISH_UNIGRAMS))
for tag in ("#PrayForLouisiana", "#lawx", "#houston"):
    print(f"{tag:20} -> {segment_hashtag(tag, segmenter)}")

# Fragments: stop words (minus gazetteer unigrams) are hard boundaries.
stopwords = read_word_list(data_path(TWEET_STOPWORDS))
for fragment in prepare_tweet(raw, stopwords, segmenter):
    print("fragment:", [t.surface for t in fragment])
